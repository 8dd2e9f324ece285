#pragma once

/// \file format.hpp
/// The wi-scan text file format: writer and tolerant parser.
///
/// Format (one file per survey location):
///
///     # wi-scan v1
///     # location: kitchen
///     time=0.0 bssid=00:17:AB:00:00:00 ssid=loctk channel=1 rssi=-54
///     time=0.0 bssid=00:17:AB:00:00:01 ssid=loctk channel=6 rssi=-61
///     time=1.0 bssid=00:17:AB:00:00:00 ssid=loctk channel=1 rssi=-55
///
/// Rules the parser follows (paper §4.3 warns that the generator
/// "must correctly deal with ... file format"):
///  * blank lines and '#' comment lines are skipped;
///  * key=value tokens may appear in any order; unknown keys are
///    ignored (forward compatibility);
///  * `bssid` and `rssi` are mandatory per row; `time` defaults to the
///    previous row's time (0 initially);
///  * a `# location:` header sets the file's location label, otherwise
///    the label is derived from the file name (stem).

#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <string>

#include "wiscan/record.hpp"

namespace loctk::wiscan {

/// Error type for malformed wi-scan input.
class FormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serializes a wi-scan file (header + rows).
void write_wiscan(std::ostream& os, const WiScanFile& file);
void write_wiscan(const std::filesystem::path& path, const WiScanFile& file);

/// Parses a wi-scan file; its sanitized stem is the location when the
/// file has no `# location:` header. Throws FormatError on rows that
/// cannot be parsed (missing bssid/rssi, malformed numbers) and on an
/// unreadable file.
WiScanFile read_wiscan(const std::filesystem::path& path);

/// In-memory round trip helpers.
std::string encode_wiscan(const WiScanFile& file);
WiScanFile decode_wiscan(const std::string& text,
                         const std::string& fallback_location = "");

/// Makes a location name safe for use as a file stem: lowercase,
/// spaces and path separators replaced by '-', other punctuation
/// dropped. "Room D22" -> "room-d22".
std::string sanitize_location_name(const std::string& name);

}  // namespace loctk::wiscan
