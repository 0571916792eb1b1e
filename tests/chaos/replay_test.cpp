// Replay artifacts: JSON round-trip, tamper rejection, and the core
// acceptance property — a violating run replays bit-identically from its
// artifact.
#include "lesslog/chaos/replay.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "lesslog/util/minijson.hpp"

namespace lesslog::chaos {
namespace {

ChaosConfig broken_config() {
  ChaosConfig cfg;
  cfg.seed = 2;
  cfg.epochs = 3;
  cfg.epoch_length = 20.0;
  cfg.files = 32;
  cfg.get_rate = 15.0;
  cfg.silent_crashes = true;  // guarantees violations
  return cfg;
}

TEST(Replay, ArtifactIsValidJsonWithSchemaTag) {
  Report report = Driver(broken_config()).run();
  const std::string json = artifact_to_json(report);
  const auto doc = util::minijson::parse(json);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const util::minijson::Value* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "lesslog.chaos");
  EXPECT_NE(doc->find("config"), nullptr);
  EXPECT_NE(doc->find("violations"), nullptr);
  EXPECT_NE(doc->find("schedule"), nullptr);
  EXPECT_NE(doc->find("stats"), nullptr);
}

TEST(Replay, ConfigSurvivesTheRoundTrip) {
  ChaosConfig cfg = broken_config();
  cfg.fault_intensity = 0.625;  // representable exactly
  cfg.seed = 0xDEADBEEFCAFEULL; // exceeds double's integer range
  Report report;
  report.config = cfg;
  const ChaosConfig back = config_from_artifact(artifact_to_json(report));
  EXPECT_EQ(back.m, cfg.m);
  EXPECT_EQ(back.b, cfg.b);
  EXPECT_EQ(back.nodes, cfg.nodes);
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.epochs, cfg.epochs);
  EXPECT_EQ(back.epoch_length, cfg.epoch_length);
  EXPECT_EQ(back.fault_intensity, cfg.fault_intensity);
  EXPECT_EQ(back.files, cfg.files);
  EXPECT_EQ(back.get_rate, cfg.get_rate);
  EXPECT_EQ(back.silent_crashes, cfg.silent_crashes);
}

TEST(Replay, MalformedArtifactsAreRejected) {
  EXPECT_THROW((void)config_from_artifact("not json"),
               std::invalid_argument);
  EXPECT_THROW((void)config_from_artifact("{}"), std::invalid_argument);
  EXPECT_THROW(
      (void)config_from_artifact(R"({"schema":"wrong","config":{}})"),
      std::invalid_argument);

  // A well-formed artifact of another format version: version 1 drew the
  // single-shard schedule in another order, so it must not replay here.
  Report report;
  report.config = broken_config();
  const std::string current = artifact_to_json(report);
  ASSERT_NO_THROW((void)config_from_artifact(current));
  const auto with = [&current](const std::string& from,
                               const std::string& to) {
    std::string out = current;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? out : out.replace(at, from.size(), to);
  };
  try {
    (void)config_from_artifact(with("\"version\":2,", "\"version\":1,"));
    FAIL() << "version 1 artifact accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported version 1"), std::string::npos) << what;
  }
  EXPECT_THROW((void)config_from_artifact(with("\"version\":2,", "")),
               std::invalid_argument);
  // The shard count is part of the schedule; it is required.
  EXPECT_THROW((void)config_from_artifact(with("\"shards\":1,", "")),
               std::invalid_argument);
}

TEST(Replay, ParseFailureMessageNamesTheSyntaxError) {
  // A corrupt artifact must fail with the parser's diagnosis, not a
  // generic "not a JSON object".
  try {
    (void)config_from_artifact("{\"schema\":\"lesslog.chaos\",");
    FAIL() << "corrupt artifact accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chaos artifact: "), std::string::npos) << what;
    EXPECT_NE(what.find("at byte"), std::string::npos) << what;
  }
}

TEST(Replay, InvalidUnicodeEscapeInArtifactIsDiagnosed) {
  // Regression: \u followed by non-hex used to pass the parser verbatim;
  // a bit-flipped artifact could sail into config extraction.
  try {
    (void)config_from_artifact(
        "{\"schema\":\"lesslog.chaos\",\"note\":\"\\uZZZZ\"}");
    FAIL() << "invalid \\u escape accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\\u escape"), std::string::npos) << what;
  }
}

TEST(Replay, ViolatingRunReplaysBitIdentically) {
  // The acceptance property: run broken recovery, capture the artifact,
  // replay from the artifact alone — same schedule, same violations.
  Report original = Driver(broken_config()).run();
  ASSERT_FALSE(original.clean());
  const std::string json = artifact_to_json(original);
  Report replayed = replay(json);
  EXPECT_TRUE(same_outcome(original, replayed));
  EXPECT_EQ(original.violations, replayed.violations);
  EXPECT_EQ(original.record, replayed.record);
  // And the replay's own artifact is byte-identical too.
  EXPECT_EQ(json, artifact_to_json(replayed));
}

TEST(Replay, WriteArtifactProducesAReloadableFile) {
  Report report = Driver(broken_config()).run();
  const std::string path = ::testing::TempDir() + "lesslog_chaos_artifact.json";
  ASSERT_TRUE(write_artifact(path, report));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const ChaosConfig back = config_from_artifact(buf.str());
  EXPECT_EQ(back.seed, report.config.seed);
  EXPECT_TRUE(back.silent_crashes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lesslog::chaos
