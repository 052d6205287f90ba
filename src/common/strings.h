// Formatting helpers used by the reporting/bench layer.
#pragma once

#include <string>
#include <vector>

namespace pf {

// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// "12.3 ms" / "1.20 s" style human-readable duration (seconds in).
std::string human_time(double seconds);

// "1.5 GB" style human-readable byte count.
std::string human_bytes(double bytes);

// Percentage with one decimal, e.g. "41.7%".
std::string percent(double fraction);

// Left/right pad to width with spaces.
std::string pad_right(const std::string& s, std::size_t width);
std::string pad_left(const std::string& s, std::size_t width);

// Join with separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

// Parses `raw` as a base-10 int. Throws pf::Error reading
// "<what>='<raw>' is not an integer" when it is empty, carries anything
// after the digits or does not fit an int.
int parse_int(const char* what, const char* raw);

// Integer environment knob: returns fallback when the variable is unset or
// empty, and parses it with parse_int otherwise, so a malformed value
// throws naming the variable. Used for runtime tuning flags like
// PF_GEMM_THREADS.
int env_int(const char* name, int fallback);

// String environment knob: returns fallback when the variable is unset or
// empty. Used for selection flags like PF_SCHEDULE.
std::string env_str(const char* name, const std::string& fallback);

}  // namespace pf
