// Unit tests for the .lar archive container (the zip substitution).

#include "wiscan/archive.hpp"

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace loctk::wiscan {
namespace {

TEST(Archive, AddContainsBytes) {
  Archive ar;
  ar.add("a.txt", "hello");
  ar.add("sub/b.txt", "world");
  EXPECT_EQ(ar.size(), 2u);
  EXPECT_TRUE(ar.contains("a.txt"));
  EXPECT_FALSE(ar.contains("c.txt"));
  EXPECT_EQ(ar.bytes("sub/b.txt"), "world");
  EXPECT_THROW(ar.bytes("missing"), ArchiveError);
}

TEST(Archive, AddReplaces) {
  Archive ar;
  ar.add("a", "v1");
  ar.add("a", "v2");
  EXPECT_EQ(ar.size(), 1u);
  EXPECT_EQ(ar.bytes("a"), "v2");
}

TEST(Archive, RejectsUnsafePaths) {
  Archive ar;
  EXPECT_THROW(ar.add("", "x"), ArchiveError);
  EXPECT_THROW(ar.add("/abs/path", "x"), ArchiveError);
  EXPECT_THROW(ar.add("../escape", "x"), ArchiveError);
  EXPECT_THROW(ar.add("a/../b", "x"), ArchiveError);
  EXPECT_THROW(ar.add("a/./b", "x"), ArchiveError);
  EXPECT_THROW(ar.add("a//b", "x"), ArchiveError);
}

TEST(Archive, StreamRoundTripIncludingBinary) {
  Archive ar;
  std::string binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
  ar.add("bin.dat", binary);
  ar.add("empty", "");
  ar.add("text/readme.txt", "line1\nline2\n");

  std::ostringstream os;
  ar.write(os);
  const Archive back = Archive::read_bytes(os.str());
  EXPECT_EQ(back.size(), 3u);
  EXPECT_EQ(back.bytes("bin.dat"), binary);
  EXPECT_EQ(back.bytes("empty"), "");
  EXPECT_EQ(back.bytes("text/readme.txt"), "line1\nline2\n");
}

TEST(Archive, CorruptInputsThrow) {
  EXPECT_THROW(Archive::read_bytes("NOPE"), ArchiveError);

  // Valid magic, truncated count.
  EXPECT_THROW(Archive::read_bytes("LAR1\x01"), ArchiveError);

  // Truncate a valid archive mid-payload.
  Archive ar;
  ar.add("f", "0123456789");
  std::ostringstream os;
  ar.write(os);
  std::string bytes = os.str();
  bytes.resize(bytes.size() - 4);
  EXPECT_THROW(Archive::read_bytes(bytes), ArchiveError);
}

TEST(Archive, FileRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "loctk_lar";
  std::filesystem::create_directories(dir);
  Archive ar;
  ar.add("x.wiscan", "bssid=aa rssi=-50\n");
  const auto path = dir / "survey.lar";
  ar.write(path);
  const Archive back = Archive::read(path);
  EXPECT_EQ(back.bytes("x.wiscan"), "bssid=aa rssi=-50\n");
  EXPECT_THROW(Archive::read(dir / "missing.lar"), ArchiveError);
  std::filesystem::remove_all(dir);
}

TEST(Archive, PackAndUnpackDirectory) {
  const auto root = std::filesystem::temp_directory_path() / "loctk_pack";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root / "in" / "deep");
  {
    std::ofstream(root / "in" / "top.txt") << "top";
    std::ofstream(root / "in" / "deep" / "nested.txt") << "nested";
  }
  const Archive ar = Archive::pack_directory(root / "in");
  EXPECT_EQ(ar.size(), 2u);
  EXPECT_EQ(ar.bytes("top.txt"), "top");
  EXPECT_EQ(ar.bytes("deep/nested.txt"), "nested");

  ar.unpack_to(root / "out");
  std::ifstream nested(root / "out" / "deep" / "nested.txt");
  std::string content;
  nested >> content;
  EXPECT_EQ(content, "nested");

  EXPECT_THROW(Archive::pack_directory(root / "nonexistent"),
               ArchiveError);
  std::filesystem::remove_all(root);
}

// Property: write/read round-trips for archives of varying entry
// counts and payload sizes.
class ArchiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(ArchiveSweep, RoundTrip) {
  const int n = GetParam();
  Archive ar;
  for (int i = 0; i < n; ++i) {
    std::string payload(static_cast<std::size_t>(i * 37 % 501), 'x');
    for (std::size_t k = 0; k < payload.size(); ++k) {
      payload[k] = static_cast<char>((k * 31 + static_cast<std::size_t>(i)) & 0xff);
    }
    ar.add("entry-" + std::to_string(i), payload);
  }
  std::ostringstream os;
  ar.write(os);
  const Archive back = Archive::read_bytes(os.str());
  ASSERT_EQ(back.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(back.bytes("entry-" + std::to_string(i)),
              ar.bytes("entry-" + std::to_string(i)));
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, ArchiveSweep,
                         ::testing::Values(0, 1, 2, 7, 31, 100));

}  // namespace
}  // namespace loctk::wiscan
