#include "src/comm/tensor_wire.h"

#include <cstring>

#include "src/common/check.h"

namespace pf {

namespace {

void put_u64(unsigned char* dst, std::uint64_t v) {
  std::memcpy(dst, &v, sizeof(v));
}

std::uint64_t get_u64(const unsigned char* src) {
  std::uint64_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

}  // namespace

std::size_t wire_bytes(std::size_t rows, std::size_t cols) {
  return kWireHeaderBytes + rows * cols * sizeof(double);
}

std::size_t wire_bytes(const Matrix& m) { return wire_bytes(m.rows(), m.cols()); }

std::size_t serialize_tensor(int micro, const Matrix& m, unsigned char* dst,
                             std::size_t capacity) {
  const std::size_t need = wire_bytes(m);
  PF_CHECK(need <= capacity)
      << "serialize_tensor: " << m.rows() << "x" << m.cols() << " message ("
      << need << " bytes) exceeds the " << capacity
      << "-byte slot — ring slots are sized for the largest boundary tensor, "
         "so this is a mis-sized transport, not a race";
  put_u64(dst, WireHeader::kMagic);
  put_u64(dst + 8, static_cast<std::uint64_t>(static_cast<std::int64_t>(micro)));
  put_u64(dst + 16, static_cast<std::uint64_t>(m.rows()));
  put_u64(dst + 24, static_cast<std::uint64_t>(m.cols()));
  if (m.size() > 0)
    std::memcpy(dst + kWireHeaderBytes, m.data(), m.size() * sizeof(double));
  return need;
}

WireMessage deserialize_tensor(const unsigned char* src, std::size_t len) {
  PF_CHECK(len >= kWireHeaderBytes)
      << "deserialize_tensor: " << len << "-byte message is shorter than the "
      << kWireHeaderBytes << "-byte header (truncated)";
  const std::uint64_t magic = get_u64(src);
  PF_CHECK(magic == WireHeader::kMagic)
      << "deserialize_tensor: bad magic 0x" << std::hex << magic
      << " (torn or foreign message)";
  const auto micro = static_cast<std::int64_t>(get_u64(src + 8));
  const std::uint64_t rows = get_u64(src + 16);
  const std::uint64_t cols = get_u64(src + 24);
  const std::size_t expect = wire_bytes(static_cast<std::size_t>(rows),
                                        static_cast<std::size_t>(cols));
  PF_CHECK(len == expect)
      << "deserialize_tensor: header says " << rows << "x" << cols << " ("
      << expect << " bytes) but the message is " << len
      << " bytes (truncated payload or trailing garbage)";
  WireMessage msg;
  msg.micro = static_cast<int>(micro);
  msg.payload = Matrix::uninitialized(static_cast<std::size_t>(rows),
                                      static_cast<std::size_t>(cols));
  if (msg.payload.size() > 0)
    std::memcpy(msg.payload.data(), src + kWireHeaderBytes,
                msg.payload.size() * sizeof(double));
  return msg;
}

}  // namespace pf
