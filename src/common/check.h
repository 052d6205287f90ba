// Checked error handling for the pipefisher library.
//
// All invariant violations throw pf::Error (derived from std::runtime_error)
// carrying the failing expression and location. Library code uses PF_CHECK
// for conditions that depend on caller input and PF_ASSERT for internal
// invariants; both are always on. A check per element is not free (a bias
// column sum through Matrix::operator() takes about twice as long as through
// a row pointer), so hot loops check shapes once, then index through row
// pointers or GEMM views (linalg/gemm.h), whose bounds are checked per view.
#pragma once

// The library uses C++20 (defaulted PipeOp::operator== in src/pipeline/ops.h,
// std::erase_if in src/trace/timeline.cpp). The CMake build asserts this via
// target_compile_features(pf PUBLIC cxx_std_20); this guard catches builds
// that bypass CMake with an older -std flag.
// (_MSVC_LANG: MSVC keeps __cplusplus at 199711L unless /Zc:__cplusplus.)
#if defined(_MSVC_LANG)
#if _MSVC_LANG < 202002L
#error "pipefisher requires C++20: build with the top-level CMakeLists.txt or pass /std:c++20"
#endif
#elif defined(__cplusplus) && __cplusplus < 202002L
#error "pipefisher requires C++20: build with the top-level CMakeLists.txt or pass -std=c++20"
#endif

#include <sstream>
#include <stdexcept>
#include <string>

namespace pf {

// Exception type thrown by every PF_CHECK / PF_ASSERT failure.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void fail(const char* kind, const char* expr, const char* file,
                       int line, const std::string& msg);

// Stream-collecting helper so PF_CHECK(x > 0) << "x=" << x works.
class FailureStream {
 public:
  FailureStream(const char* kind, const char* expr, const char* file, int line)
      : kind_(kind), expr_(expr), file_(file), line_(line) {}
  [[noreturn]] ~FailureStream() noexcept(false) {
    fail(kind_, expr_, file_, line_, os_.str());
  }
  template <typename T>
  FailureStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  const char* kind_;
  const char* expr_;
  const char* file_;
  int line_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace pf

#define PF_CHECK(cond)                                                     \
  if (cond) {                                                              \
  } else                                                                   \
    ::pf::detail::FailureStream("PF_CHECK", #cond, __FILE__, __LINE__)

#define PF_ASSERT(cond)                                                    \
  if (cond) {                                                              \
  } else                                                                   \
    ::pf::detail::FailureStream("PF_ASSERT", #cond, __FILE__, __LINE__)
