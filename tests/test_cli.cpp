// The CLI end to end, driven in-process: generate -> sketch per site ->
// merge -> estimate, plus error handling.
#include "cli/commands.h"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "cli/args.h"
#include "common/error.h"
#include "common/frame.h"
#include "common/serialize.h"
#include "durability/recovery.h"

namespace ustream::cli {
namespace {

class CliTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir();
  std::vector<std::string> files_;

  std::string path(const std::string& name) {
    files_.push_back(dir_ + "/" + name);
    return files_.back();
  }

  void TearDown() override {
    for (const auto& f : files_) std::remove(f.c_str());
  }

  static std::pair<int, std::string> invoke(const std::vector<std::string>& argv) {
    std::string out;
    const int code = run(argv, out);
    return {code, out};
  }
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  auto [code, out] = invoke({"help"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
  auto [code2, out2] = invoke({"frobnicate"});
  EXPECT_EQ(code2, 2);
  EXPECT_NE(out2.find("unknown command"), std::string::npos);
  auto [code3, out3] = invoke({});
  EXPECT_EQ(code3, 2);
}

TEST_F(CliTest, FullPipelineMatchesExact) {
  const auto t0 = path("site0.trace");
  const auto t1 = path("site1.trace");
  const auto s0 = path("site0.sk");
  const auto s1 = path("site1.sk");
  const auto merged = path("union.sk");

  for (const auto& [trace, seed] : {std::pair{t0, "1"}, std::pair{t1, "2"}}) {
    auto [code, out] = invoke({"generate", "--distinct", "20000", "--items", "60000",
                               "--seed", seed, "--out", trace});
    ASSERT_EQ(code, 0) << out;
  }
  for (const auto& [trace, sketch] : {std::pair{t0, s0}, std::pair{t1, s1}}) {
    auto [code, out] = invoke({"sketch", "--in", trace, "--eps", "0.1", "--delta", "0.05",
                               "--seed", "42", "--out", sketch});
    ASSERT_EQ(code, 0) << out;
  }
  auto [mcode, mout] = invoke({"merge", "--out", merged, s0, s1});
  ASSERT_EQ(mcode, 0) << mout;

  auto [ecode, eout] = invoke({"estimate", merged});
  ASSERT_EQ(ecode, 0) << eout;

  // Streams were generated with independent random64 label pools: union
  // truth ~ 40000 (collision probability over 2^64 negligible).
  const F0Estimator est = read_sketch_file(merged);
  EXPECT_NEAR(est.estimate(), 40'000.0, 4000.0);

  auto [xcode, xout] = invoke({"exact", "--in", t0});
  EXPECT_EQ(xcode, 0);
  EXPECT_NE(xout.find("20000 distinct"), std::string::npos) << xout;
}

TEST_F(CliTest, InfoIdentifiesFileKinds) {
  const auto trace = path("x.trace");
  const auto sketch = path("x.sk");
  invoke({"generate", "--distinct", "100", "--items", "100", "--out", trace});
  invoke({"sketch", "--in", trace, "--out", sketch});
  auto [code, out] = invoke({"info", trace, sketch});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("trace"), std::string::npos);
  EXPECT_NE(out.find("sketch"), std::string::npos);
}

TEST_F(CliTest, MergeRejectsMismatchedSeeds) {
  const auto trace = path("y.trace");
  const auto a = path("a.sk");
  const auto b = path("b.sk");
  const auto merged = path("m.sk");
  invoke({"generate", "--distinct", "1000", "--items", "1000", "--out", trace});
  invoke({"sketch", "--in", trace, "--seed", "1", "--out", a});
  invoke({"sketch", "--in", trace, "--seed", "2", "--out", b});
  auto [code, out] = invoke({"merge", "--out", merged, a, b});
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST_F(CliTest, ErrorsAreReportedNotThrown) {
  auto [code, out] = invoke({"sketch", "--in", dir_ + "/missing.trace", "--out", path("z.sk")});
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("error:"), std::string::npos);
  auto [code2, out2] = invoke({"generate", "--distinct", "abc", "--out", path("w.trace")});
  EXPECT_EQ(code2, 1);
  auto [code3, out3] = invoke({"generate", "--distnict", "10", "--out", path("v.trace")});
  EXPECT_EQ(code3, 1);  // typo caught by reject_unknown
  EXPECT_NE(out3.find("--distnict"), std::string::npos);
}

TEST_F(CliTest, InfoShowsFrameMetadataForSketchFiles) {
  F0Estimator est(EstimatorParams{.capacity = 64, .copies = 3, .seed = 5});
  est.add(1);
  const auto file = path("framed.sk");
  write_sketch_file(file, est);
  auto [code, out] = invoke({"info", file});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("framed sketch"), std::string::npos) << out;
  EXPECT_NE(out.find("crc ok"), std::string::npos) << out;
  EXPECT_NE(out.find("f0-estimator"), std::string::npos) << out;
}

TEST_F(CliTest, UnframedV0SketchFilesAreRefused) {
  // Files written before the framed format (bare "USKE" magic + payload,
  // no checksum) are not read: every sketch file must carry a CRC frame.
  F0Estimator est(EstimatorParams{.capacity = 64, .copies = 3, .seed = 6});
  for (std::uint64_t x = 0; x < 500; ++x) est.add(x);
  const auto file = path("unframed.sk");
  {
    ByteWriter w;
    w.u32(0x454b5355);  // "USKE"
    est.serialize(w);
    const auto& bytes = w.data();
    std::FILE* f = std::fopen(file.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  EXPECT_THROW(read_sketch_file(file), SerializationError);
  for (const std::vector<std::string>& argv :
       {std::vector<std::string>{"info", file}, std::vector<std::string>{"estimate", file},
        std::vector<std::string>{"push", "--to", "127.0.0.1:1", file}}) {
    auto [code, out] = invoke(argv);
    EXPECT_EQ(code, 1) << argv[0] << ": " << out;
    EXPECT_NE(out.find("not a framed"), std::string::npos) << argv[0] << ": " << out;
  }
}

TEST_F(CliTest, WalInspectAndDumpShowTheChainAndItsTornTail) {
  std::string tmpl = dir_ + "/ustream_cli_wal_XXXXXX";
  const std::string wal_dir = ::mkdtemp(tmpl.data());
  {
    durability::DurableLog::Options options;
    options.dir = wal_dir;
    options.fsync = durability::FsyncPolicy::kNever;
    durability::DurableLog log(options, 2, /*run_id=*/9);
    for (std::uint32_t site = 0; site < 2; ++site) {
      F0Estimator est(EstimatorParams{.capacity = 64, .copies = 3, .seed = 8});
      est.add(site);
      log.log_accepted(site, 1, frame_encode({PayloadKind::kF0Estimator, site, 1},
                                             est.serialize()));
    }
  }
  // A crash mid-append strands a partial record at the tail.
  const std::string segment = wal_dir + "/" + durability::wal_segment_name(0, 0);
  std::FILE* f = std::fopen(segment.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char partial[] = {0x40, 0x00, 0x00};
  std::fwrite(partial, 1, sizeof(partial), f);
  std::fclose(f);

  auto [code, out] = invoke({"wal", "inspect", "--dir", wal_dir});
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("1 segment(s), 0 snapshot(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("shard 0 seq 0 watermark 0"), std::string::npos) << out;
  auto [dcode, dout] = invoke({"wal", "dump", "--dir", wal_dir, "--json"});
  EXPECT_EQ(dcode, 0) << dout;
  EXPECT_NE(dout.find("\"site\":0,\"epoch\":1,\"kind\":\"f0-estimator\""), std::string::npos)
      << dout;
  EXPECT_NE(dout.find("\"site\":1,\"epoch\":1,\"kind\":\"f0-estimator\""), std::string::npos)
      << dout;
  EXPECT_NE(dout.find("\"torn_tails\":1"), std::string::npos) << dout;
  std::filesystem::remove_all(wal_dir);
}

TEST_F(CliTest, CorruptedSketchFileIsRejectedByChecksum) {
  F0Estimator est(EstimatorParams{.capacity = 64, .copies = 3, .seed = 7});
  est.add(1);
  const auto file = path("corrupt.sk");
  write_sketch_file(file, est);
  {
    std::FILE* f = std::fopen(file.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 30, SEEK_SET);  // inside the payload
    const char x = 0x7F;
    std::fwrite(&x, 1, 1, f);
    std::fclose(f);
  }
  EXPECT_THROW(read_sketch_file(file), SerializationError);
  auto [code, out] = invoke({"estimate", file});
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

TEST_F(CliTest, CollectCommandReportsRecovery) {
  // Clean transport: complete, no retries.
  auto [code, out] = invoke({"collect", "--sites", "4", "--distinct", "20000", "--seed", "3"});
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("union estimate"), std::string::npos) << out;
  EXPECT_NE(out.find("collected 4/4 sites"), std::string::npos) << out;
  EXPECT_NE(out.find("0 retries"), std::string::npos) << out;

  // Lossy transport: still complete (exit 0), but via retries.
  auto [fcode, fout] = invoke({"collect", "--sites", "4", "--distinct", "20000", "--seed", "3",
                               "--drop", "0.5", "--attempts", "16"});
  EXPECT_EQ(fcode, 0) << fout;
  EXPECT_NE(fout.find("collected 4/4 sites"), std::string::npos) << fout;
  EXPECT_NE(fout.find("dropped"), std::string::npos) << fout;

  // Dead transport: degraded lower bound, distinct exit code.
  auto [dcode, dout] = invoke({"collect", "--sites", "4", "--distinct", "20000", "--seed", "3",
                               "--drop", "1.0", "--attempts", "2"});
  EXPECT_EQ(dcode, 3) << dout;
  EXPECT_NE(dout.find("DEGRADED"), std::string::npos) << dout;
  EXPECT_NE(dout.find("missing sites"), std::string::npos) << dout;
}

TEST_F(CliTest, SketchFileRoundtripHelpers) {
  F0Estimator est(EstimatorParams{.capacity = 64, .copies = 3, .seed = 5});
  for (std::uint64_t x = 0; x < 1000; ++x) est.add(x);
  const auto file = path("direct.sk");
  write_sketch_file(file, est);
  const F0Estimator back = read_sketch_file(file);
  EXPECT_DOUBLE_EQ(back.estimate(), est.estimate());
  EXPECT_THROW(read_sketch_file(dir_ + "/nope.sk"), InvalidArgument);
}

TEST(CliArgs, ParsingBasics) {
  // Flags greedily take the following token as their value; a flag at the
  // end of the line is boolean.
  Args args({"--a", "1", "--b", "hello", "pos1", "pos2", "--c"});
  EXPECT_EQ(args.u64("a", 0), 1u);
  EXPECT_EQ(args.str("b", ""), "hello");
  EXPECT_TRUE(args.has("c"));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.positional()[1], "pos2");
  EXPECT_EQ(args.u64("missing", 9), 9u);
  EXPECT_THROW(args.required_str("missing"), InvalidArgument);
}

TEST(CliArgs, BooleanFlagsDoNotSwallowPositionals) {
  // --json/--stats/--health never take a value, so `push --stats s0.sk`
  // keeps s0.sk as the positional sketch file.
  Args args({"--stats", "s0.sk", "--json", "u.sk", "--health", "h.sk"});
  EXPECT_TRUE(args.has("stats"));
  EXPECT_TRUE(args.has("json"));
  EXPECT_TRUE(args.has("health"));
  ASSERT_EQ(args.positional().size(), 3u);
  EXPECT_EQ(args.positional()[0], "s0.sk");
  EXPECT_EQ(args.positional()[1], "u.sk");
  EXPECT_EQ(args.positional()[2], "h.sk");
}

TEST(CliArgs, TypeErrors) {
  Args args({"--n", "12x", "--f", "oops"});
  EXPECT_THROW(args.u64("n", 0), InvalidArgument);
  EXPECT_THROW(args.f64("f", 0.0), InvalidArgument);
}

}  // namespace
}  // namespace ustream::cli
