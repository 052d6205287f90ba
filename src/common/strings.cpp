#include "src/common/strings.h"

#include <cerrno>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"

namespace pf {

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  PF_CHECK(needed >= 0) << "vsnprintf failed";
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

std::string human_time(double seconds) {
  if (seconds < 0) return "-" + human_time(-seconds);
  if (seconds < 1e-6) return format("%.1f ns", seconds * 1e9);
  if (seconds < 1e-3) return format("%.1f us", seconds * 1e6);
  if (seconds < 1.0) return format("%.1f ms", seconds * 1e3);
  if (seconds < 120.0) return format("%.2f s", seconds);
  return format("%.1f min", seconds / 60.0);
}

std::string human_bytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  return format("%.2f %s", bytes, units[u]);
}

std::string percent(double fraction) {
  return format("%.1f%%", fraction * 100.0);
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

int parse_int(const char* what, const char* raw) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(raw, &end, 10);
  PF_CHECK(end != raw && *end == '\0' && errno != ERANGE && v >= INT_MIN &&
           v <= INT_MAX)
      << what << "='" << raw << "' is not an integer";
  return static_cast<int>(v);
}

int env_int(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return fallback;
  return parse_int(name, raw);
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return fallback;
  return raw;
}

}  // namespace pf
