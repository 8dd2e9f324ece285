#include "wiscan/scan_buffer.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "base/fault_injector.hpp"
#include "wiscan/format.hpp"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define LOCTK_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace loctk::wiscan {

std::string read_file_bytes(const std::filesystem::path& path) {
  if (FaultInjector::instance().should_fail_io()) {
    throw BufferError("read_file_bytes: injected I/O failure on " +
                      path.string());
  }
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) {
    throw BufferError("read_file_bytes: cannot open " + path.string());
  }
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  if (end < 0) {
    throw BufferError("read_file_bytes: cannot size " + path.string());
  }
  std::string bytes;
  bytes.resize(static_cast<std::size_t>(end));
  is.seekg(0, std::ios::beg);
  is.read(bytes.data(), end);
  if (static_cast<std::streamoff>(is.gcount()) != end) {
    throw BufferError("read_file_bytes: short read on " + path.string());
  }
  FaultInjector::instance().corrupt(bytes);
  return bytes;
}

FileBuffer::FileBuffer(const std::filesystem::path& path) {
#if LOCTK_HAVE_MMAP
  // Injection needs mutable bytes (truncation, bit flips) and a veto
  // point; a read-only shared mapping offers neither, so an armed
  // injector routes every buffer through the heap path.
  if (FaultInjector::instance().armed()) {
    heap_ = read_file_bytes(path);
    return;
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw BufferError("FileBuffer: cannot open " + path.string());
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw BufferError("FileBuffer: cannot stat " + path.string());
  }
  // Regular non-empty files are mapped; everything else (empty files,
  // pipes) goes through the heap path below.
  if (S_ISREG(st.st_mode) && st.st_size > 0) {
    void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                     PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED) {
      throw BufferError("FileBuffer: mmap failed for " + path.string());
    }
    map_ = p;
    size_ = static_cast<std::size_t>(st.st_size);
    return;
  }
  ::close(fd);
#endif
  heap_ = read_file_bytes(path);
}

FileBuffer::~FileBuffer() {
#if LOCTK_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
}

namespace {

// Exact powers of ten up to 10^22 — every entry is an integer below
// 2^74 whose binary expansion fits a double exactly.
constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                             1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                             1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
                             1e18, 1e19, 1e20, 1e21, 1e22};

// Fast path for plain fixed-notation decimals ([+-]digits[.digits]),
// which is every number the wi-scan and location-map formats emit.
// With <= 15 significant digits the mantissa fits 2^53 exactly and
// the scale is an exact power of ten, so one division yields the
// correctly-rounded value — bit-identical to from_chars/stod.
// Returns nullopt when the token needs the general-purpose parser
// (exponents, long mantissas, inf/nan, or malformed input).
std::optional<double> parse_fixed_decimal(std::string_view text) {
  std::size_t i = 0;
  const bool negative = !text.empty() && text.front() == '-';
  if (negative || (!text.empty() && text.front() == '+')) i = 1;

  std::uint64_t mantissa = 0;
  int digits = 0;
  int frac_digits = -1;  // >= 0 once the decimal point is seen
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c >= '0' && c <= '9') {
      mantissa = mantissa * 10 + static_cast<std::uint64_t>(c - '0');
      ++digits;
      if (frac_digits >= 0) ++frac_digits;
    } else if (c == '.' && frac_digits < 0) {
      frac_digits = 0;
    } else {
      return std::nullopt;  // exponent or garbage: general parser
    }
  }
  if (digits == 0 || digits > 15) return std::nullopt;
  const double magnitude =
      static_cast<double>(mantissa) /
      kPow10[frac_digits < 0 ? 0 : frac_digits];
  return negative ? -magnitude : magnitude;
}

}  // namespace

std::optional<double> parse_number(std::string_view text) {
  if (const auto fast = parse_fixed_decimal(text)) return fast;
  // std::stod tolerated an explicit leading '+'; from_chars does not.
  if (text.size() > 1 && text.front() == '+' && text[1] != '+' &&
      text[1] != '-') {
    text.remove_prefix(1);
  }
  if (text.empty()) return std::nullopt;
#if defined(__cpp_lib_to_chars)
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return v;
#else
  // Pre-<charconv>-FP toolchains: strtod on a NUL-terminated copy.
  // Tokens are short (one number), so the copy stays in SSO storage.
  const std::string copy(text);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return std::nullopt;
  return v;
#endif
}

std::optional<std::string_view> LineScanner::next() {
  if (pos_ >= text_.size()) return std::nullopt;
  ++line_no_;
  const std::size_t nl = text_.find('\n', pos_);
  std::string_view line = nl == std::string_view::npos
                              ? text_.substr(pos_)
                              : text_.substr(pos_, nl - pos_);
  pos_ = nl == std::string_view::npos ? text_.size() : nl + 1;
  // Files written on Windows (the paper's toolkit environment).
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

namespace {

std::string_view trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

// istream >> whitespace, as a branch-cheap predicate. A multi-char
// find_first_of over the set costs ~4x as much as this per byte,
// and the tokenizer visits every byte of every row.
inline bool is_token_space(char c) {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

// Yields whitespace-separated tokens of one line, istream >> style.
struct TokenScanner {
  std::string_view line;
  std::size_t pos = 0;

  std::optional<std::string_view> next() {
    const std::size_t size = line.size();
    std::size_t begin = pos;
    while (begin < size && is_token_space(line[begin])) ++begin;
    if (begin >= size) {
      pos = size;
      return std::nullopt;
    }
    std::size_t end = begin;
    while (end < size && !is_token_space(line[end])) ++end;
    pos = end;
    return line.substr(begin, end - begin);
  }
};

double require_number(std::string_view text, const char* what,
                      std::size_t line_no) {
  const auto v = parse_number(text);
  if (!v) {
    throw FormatError(std::string(what) + ": not a number: '" +
                      std::string(text) + "' (line " +
                      std::to_string(line_no) + ")");
  }
  return *v;
}

// Fast path for the canonical row shape the toolkit's own writer
// emits: `time=T bssid=B [ssid=S] [channel=C] rssi=R`, keys in that
// order. Matching the expected key directly skips the per-token
// dispatch chain of the generic loop. Returns false — with no fields
// committed — whenever the row deviates (reordered or unknown keys,
// extra whitespace, malformed numbers), and the generic loop re-parses
// the line from scratch so diagnostics are identical either way.
struct CanonicalRow {
  std::string_view bssid;
  std::string_view ssid;
  double timestamp_s = 0.0;
  double rssi_dbm = 0.0;
  int channel = 0;
  bool has_time = false;
};

bool parse_canonical_row(std::string_view line, CanonicalRow& row,
                         std::string_view& cached_time_token,
                         double& cached_time_value) {
  std::size_t pos = 0;
  const std::size_t size = line.size();
  // Matches `<key>=<value>` at `pos` followed by one space or the end
  // of the line; yields the value and advances past the separator.
  const auto take = [&](std::string_view key,
                        std::string_view& value) -> bool {
    if (!line.substr(pos).starts_with(key)) return false;
    const std::size_t vbegin = pos + key.size();
    std::size_t vend = vbegin;
    while (vend < size && line[vend] != ' ') {
      if (is_token_space(line[vend])) return false;  // generic loop
      ++vend;
    }
    if (vend == vbegin) return false;  // empty value: let it diagnose
    value = line.substr(vbegin, vend - vbegin);
    pos = vend < size ? vend + 1 : size;
    return true;
  };

  std::string_view value;
  if (take("time=", value)) {
    if (value == cached_time_token) {
      row.timestamp_s = cached_time_value;
    } else {
      const auto t = parse_fixed_decimal(value);
      if (!t) return false;
      row.timestamp_s = *t;
      cached_time_token = value;
      cached_time_value = *t;
    }
    row.has_time = true;
  }
  if (!take("bssid=", row.bssid)) return false;
  take("ssid=", row.ssid);  // optional
  if (take("channel=", value)) {
    const auto c = parse_fixed_decimal(value);
    if (!c) return false;
    row.channel = static_cast<int>(*c);
  }
  if (!take("rssi=", value)) return false;
  const auto r = parse_fixed_decimal(value);
  if (!r) return false;
  row.rssi_dbm = *r;
  return pos >= size;  // anything left over: generic loop
}

}  // namespace

void scan_wiscan_buffer(std::string_view text, WiScanRowSink& sink) {
  LineScanner lines(text);
  double last_time = 0.0;
  // Every row of one scan pass carries the same time= token; remember
  // the last token's bytes so repeats skip the numeric parse.
  std::string_view cached_time_token;
  double cached_time_value = 0.0;
  while (const auto maybe_line = lines.next()) {
    const std::string_view line = *maybe_line;
    const std::size_t line_no = lines.line_number();

    if (line.empty()) continue;
    // Data rows start at column zero; only indented or blank-ish lines
    // pay for the leading-whitespace scan.
    std::size_t first_nonspace = 0;
    if (line[0] == ' ' || line[0] == '\t') {
      first_nonspace = line.find_first_not_of(" \t");
      if (first_nonspace == std::string_view::npos) continue;
    }
    if (line[first_nonspace] == '#') {
      // Comments may carry the location header.
      static constexpr std::string_view kLocTag = "location:";
      const auto tag = line.find(kLocTag);
      if (tag != std::string_view::npos) {
        const std::string_view loc = trim(line.substr(tag + kLocTag.size()));
        if (!loc.empty()) sink.on_location(loc);
      }
      continue;
    }

    WiScanRow out;
    out.timestamp_s = last_time;

    CanonicalRow row;
    if (first_nonspace == 0 &&
        parse_canonical_row(line, row, cached_time_token,
                            cached_time_value)) {
      out.bssid = row.bssid;
      out.ssid = row.ssid;
      out.channel = row.channel;
      out.rssi_dbm = row.rssi_dbm;
      if (row.has_time) out.timestamp_s = row.timestamp_s;
      last_time = out.timestamp_s;
      sink.on_row(out);
      continue;
    }

    bool have_bssid = false;
    bool have_rssi = false;

    TokenScanner tokens{line};
    while (const auto maybe_token = tokens.next()) {
      const std::string_view token = *maybe_token;
      // Known keys are matched by literal prefix (one fixed-length
      // memcmp each, ordered by on-disk position) instead of locating
      // '=' and slicing first — the '=' scan only runs for the rare
      // unknown-key token.
      if (token.starts_with("time=")) {
        const std::string_view value = token.substr(5);
        if (!value.empty() && value == cached_time_token) {
          out.timestamp_s = cached_time_value;
        } else {
          out.timestamp_s =
              require_number(value, "read_wiscan: time", line_no);
          cached_time_token = value;
          cached_time_value = out.timestamp_s;
        }
      } else if (token.starts_with("bssid=")) {
        out.bssid = token.substr(6);
        have_bssid = true;
      } else if (token.starts_with("ssid=")) {
        out.ssid = token.substr(5);
      } else if (token.starts_with("channel=")) {
        out.channel = static_cast<int>(require_number(
            token.substr(8), "read_wiscan: channel", line_no));
      } else if (token.starts_with("rssi=")) {
        out.rssi_dbm =
            require_number(token.substr(5), "read_wiscan: rssi", line_no);
        // parse_number accepts "inf"/"nan" spellings (from_chars does);
        // a non-finite dBm would flow into Welford accumulation and
        // Gaussian sigma math downstream, so reject it at the row.
        if (!std::isfinite(out.rssi_dbm)) {
          throw FormatError("read_wiscan: rssi not finite: '" +
                            std::string(token.substr(5)) + "' (line " +
                            std::to_string(line_no) + ")");
        }
        have_rssi = true;
      } else {
        const auto eq = token.find('=');
        if (eq == std::string_view::npos || eq == 0) {
          throw FormatError("read_wiscan: line " + std::to_string(line_no) +
                            ": expected key=value, got '" +
                            std::string(token) + "'");
        }
        // Unknown keys: ignored deliberately (forward compatibility).
      }
    }
    if (!have_bssid) {
      throw FormatError("read_wiscan: line " + std::to_string(line_no) +
                        ": missing bssid");
    }
    if (!have_rssi) {
      throw FormatError("read_wiscan: line " + std::to_string(line_no) +
                        ": missing rssi");
    }
    last_time = out.timestamp_s;
    sink.on_row(out);
  }
}

namespace {

// Materializes rows into a WiScanFile — the adapter that keeps
// parse_wiscan_buffer behaving exactly as before the push-parser
// refactor.
struct FileSink final : WiScanRowSink {
  WiScanFile file;

  void on_location(std::string_view location) override {
    file.location = location;
  }
  void on_row(const WiScanRow& row) override {
    WiScanEntry& entry = file.entries.emplace_back();
    entry.timestamp_s = row.timestamp_s;
    entry.bssid = row.bssid;
    entry.ssid = row.ssid;
    entry.channel = row.channel;
    entry.rssi_dbm = row.rssi_dbm;
  }
};

}  // namespace

WiScanFile parse_wiscan_buffer(std::string_view text,
                               std::string_view fallback_location) {
  FileSink sink;
  sink.file.location = fallback_location;
  // Nearly every line is one entry; one up-front count avoids the
  // reallocation churn of growing a vector of string-bearing structs.
  // memchr, not std::count: the libc scanner runs at memory bandwidth.
  std::size_t line_upper_bound = 1;
  const char* cursor = text.data();
  const char* const text_end = cursor + text.size();
  while (cursor < text_end) {
    const void* nl = std::memchr(
        cursor, '\n', static_cast<std::size_t>(text_end - cursor));
    if (nl == nullptr) break;
    ++line_upper_bound;
    cursor = static_cast<const char*>(nl) + 1;
  }
  sink.file.entries.reserve(line_upper_bound);
  scan_wiscan_buffer(text, sink);
  return std::move(sink.file);
}

namespace {

// Reads a possibly-quoted location name starting at `pos`; advances
// pos past it. Mirrors the istream-era grammar exactly.
std::string read_map_name(std::string_view line, std::size_t& pos,
                          std::size_t line_no) {
  if (line[pos] != '"') {
    const auto end = line.find_first_of(" \t", pos);
    std::string name(
        line.substr(pos, end == std::string_view::npos ? end : end - pos));
    pos = end == std::string_view::npos ? line.size() : end;
    return name;
  }
  ++pos;  // opening quote
  std::string name;
  while (pos < line.size()) {
    const char c = line[pos++];
    if (c == '\\' && pos < line.size()) {
      name.push_back(line[pos++]);
    } else if (c == '"') {
      return name;
    } else {
      name.push_back(c);
    }
  }
  throw LocationMapError("location-map: line " + std::to_string(line_no) +
                         ": unterminated quoted name");
}

}  // namespace

LocationMap parse_location_map_buffer(std::string_view text) {
  LocationMap map;
  LineScanner lines(text);
  while (const auto maybe_line = lines.next()) {
    const std::string_view line = *maybe_line;
    const std::size_t line_no = lines.line_number();
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string_view::npos || line[start] == '#') continue;

    std::size_t pos = start;
    const std::string name = read_map_name(line, pos, line_no);
    if (name.empty()) {
      throw LocationMapError("location-map: line " + std::to_string(line_no) +
                             ": empty name");
    }
    TokenScanner coords{line, pos};
    double xy[2] = {0.0, 0.0};
    for (double& v : xy) {
      const auto token = coords.next();
      const auto value = token ? parse_number(*token) : std::nullopt;
      if (!value) {
        throw LocationMapError("location-map: line " +
                               std::to_string(line_no) +
                               ": expected two coordinates after name");
      }
      v = *value;
    }
    if (const auto extra = coords.next()) {
      throw LocationMapError("location-map: line " + std::to_string(line_no) +
                             ": trailing garbage after coordinates: '" +
                             std::string(*extra) + "'");
    }
    map.set(name, {xy[0], xy[1]});
  }
  return map;
}

Result<std::string> try_read_file_bytes(const std::filesystem::path& path) {
  try {
    return read_file_bytes(path);
  } catch (const BufferError& e) {
    return Error(ErrorCode::kIo, e.what());
  }
}

Result<WiScanFile> try_parse_wiscan_buffer(std::string_view text,
                                           std::string_view fallback_location) {
  try {
    return parse_wiscan_buffer(text, fallback_location);
  } catch (const FormatError& e) {
    return Error(ErrorCode::kParse, e.what());
  } catch (const std::exception& e) {
    return Error(ErrorCode::kInternal, e.what());
  }
}

Result<LocationMap> try_parse_location_map_buffer(std::string_view text) {
  try {
    return parse_location_map_buffer(text);
  } catch (const LocationMapError& e) {
    return Error(ErrorCode::kParse, e.what());
  } catch (const std::exception& e) {
    return Error(ErrorCode::kInternal, e.what());
  }
}

}  // namespace loctk::wiscan
