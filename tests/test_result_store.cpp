// Durability tests of the journaled result store (src/sched): round-trips
// across instances, schema header, v1 (headerless) compatibility, torn-tail
// repair after a simulated crash, and write-temp-rename checkpoints.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sched/result_store.hpp"

namespace indigo::sched {
namespace {

class ResultStoreTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string("result_store_test_") + std::to_string(::getpid()) +
            ".csv";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  std::string path_;
};

TEST_F(ResultStoreTest, RoundTripsEntriesAcrossInstances) {
  ResultEntry e{1.25, 3.5, 42, true, {{"vcuda.launches", 7.0}}};
  {
    ResultStore s(path_);
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.journal_hits(), 0u);
    s.put("prog|graph|cpu|4|1", e);
    EXPECT_EQ(s.appended(), 1u);
  }
  ResultStore s(path_);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.journal_hits(), 1u);
  const auto got = s.find("prog|graph|cpu|4|1");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, e);
  EXPECT_FALSE(s.find("missing").has_value());
}

TEST_F(ResultStoreTest, StampsTheSchemaHeaderOnNewJournals) {
  { ResultStore s(path_); }
  const std::string text = slurp(path_);
  EXPECT_EQ(text.substr(0, text.find('\n')), ResultStore::kHeader);
}

TEST_F(ResultStoreTest, LoadsHeaderlessV1Journals) {
  {
    // The pre-scheduler Harness cache: no header, same line format.
    std::ofstream out(path_);
    out << "k1\t0.5\t2\t3\t1\n";
    out << "k2\t1.5\t0\t0\t0\ta=1;b=2.5\n";
  }
  ResultStore s(path_);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.malformed(), 0u);
  EXPECT_FALSE(s.find("k2")->verified);
  EXPECT_EQ(s.find("k2")->metrics.at("b"), 2.5);
}

TEST_F(ResultStoreTest, DropsAndRepairsATornTail) {
  {
    std::ofstream out(path_);
    out << "good\t0.5\t2\t3\t1\n";
    out << "torn\t0.25\t1\t1\t1";  // crash mid-append: no newline
  }
  testing::internal::CaptureStderr();
  {
    ResultStore s(path_);
    const std::string warnings = testing::internal::GetCapturedStderr();
    // The torn line may be incomplete even though it parses: drop it.
    EXPECT_EQ(s.size(), 1u);
    EXPECT_EQ(s.malformed(), 1u);
    EXPECT_NE(warnings.find("malformed"), std::string::npos);
    ASSERT_TRUE(s.find("good").has_value());
    // Appends after the repair start on a fresh line.
    s.put("next", {1, 1, 1, true, {}});
  }
  ResultStore s(path_);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.find("next").has_value());
}

TEST_F(ResultStoreTest, SkipsMalformedLinesAndKeepsTheRest) {
  {
    std::ofstream out(path_);
    out << "good\t0.5\t2\t3\t1\n";
    out << "bad-nums\tx\ty\tz\tw\n";
    out << "bad-flag\t1\t1\t1\t7\n";
    out << "bad-metrics\t1\t1\t1\t1\tnot;a=map=x\n";
  }
  testing::internal::CaptureStderr();
  ResultStore s(path_);
  const std::string warnings = testing::internal::GetCapturedStderr();
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.malformed(), 3u);
  EXPECT_NE(warnings.find("malformed"), std::string::npos);
}

TEST_F(ResultStoreTest, CheckpointRewritesSortedAndKeepsAppending) {
  {
    ResultStore s(path_);
    s.put("b", {2, 0, 0, true, {}});
    s.put("a", {1, 0, 0, true, {}});
    ASSERT_TRUE(s.checkpoint());
    const std::string text = slurp(path_);
    // Header first, then the entries in key order (map iteration).
    std::istringstream is(text);
    std::string l0, l1, l2;
    std::getline(is, l0);
    std::getline(is, l1);
    std::getline(is, l2);
    EXPECT_EQ(l0, ResultStore::kHeader);
    EXPECT_EQ(l1.substr(0, 2), "a\t");
    EXPECT_EQ(l2.substr(0, 2), "b\t");
    // The append descriptor survives the rename.
    s.put("c", {3, 0, 0, true, {}});
  }  // release the append flock before reloading
  ResultStore reloaded(path_);
  EXPECT_EQ(reloaded.size(), 3u);
}

TEST_F(ResultStoreTest, AnnotationsPersistAsCommentsAndReplayIgnoresThem) {
  {
    ResultStore s(path_);
    s.put("kept|g|cpu|1|1", ResultEntry{1.0, 2.0, 3, true, {}});
    s.annotate("quarantined foo@bar after 2 attempt(s): timeout "
               "(flight dump: flightdump-123.json)");
    s.annotate("multi\nline\rnote");  // newlines must not splice lines
  }
  const std::string text = slurp(path_);
  EXPECT_NE(text.find("# quarantined foo@bar"), std::string::npos);
  EXPECT_NE(text.find("# multi line note"), std::string::npos);
  ResultStore reload(path_);
  EXPECT_EQ(reload.size(), 1u);       // comments are not entries
  EXPECT_EQ(reload.malformed(), 0u);  // and not malformed lines either
  ASSERT_TRUE(reload.find("kept|g|cpu|1|1").has_value());
  // checkpoint() compacts comments away; the journal stays loadable.
  EXPECT_TRUE(reload.checkpoint());
  EXPECT_EQ(slurp(path_).find("# quarantined"), std::string::npos);
}

TEST_F(ResultStoreTest, EmptyPathKeepsResultsInMemoryOnly) {
  ResultStore s("");
  s.put("k", {1, 2, 3, true, {}});
  EXPECT_TRUE(s.find("k").has_value());
  EXPECT_TRUE(s.checkpoint());
}

TEST_F(ResultStoreTest, EncodeDecodeRoundTripsExactDoubles) {
  ResultEntry e{0.1 + 0.2, 1.0 / 3.0, 9, true, {{"x", 2.0 / 7.0}}};
  const std::string line = ResultStore::encode_line("k", e);
  const auto parsed = ResultStore::decode_line(
      line.substr(0, line.size() - 1));  // strip the newline
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, "k");
  EXPECT_EQ(parsed->second, e);
}

TEST_F(ResultStoreTest, SecondAppenderOnTheSameJournalFailsFast) {
  ResultStore first(path_);
  // The advisory flock makes the corruption mode (two processes
  // interleaving fsync'd appends into one journal) a loud constructor
  // error instead of a silent data race.
  EXPECT_THROW(ResultStore{path_}, std::runtime_error);
  // Dropping the holder releases the lock; reopening works again.
  first.put("k|g|cpu|1|1", ResultEntry{1, 2, 3, true, {}});
  ResultStore& f = first;
  (void)f;
}

TEST_F(ResultStoreTest, JournalReopensAfterHolderCloses) {
  { ResultStore s(path_); s.put("a|g|cpu|1|1", {1, 2, 3, true, {}}); }
  ResultStore again(path_);
  EXPECT_EQ(again.size(), 1u);
  // checkpoint() re-opens the journal fd (write-temp + rename) and must
  // re-take the lock without erroring.
  EXPECT_TRUE(again.checkpoint());
  again.put("b|g|cpu|1|1", {2, 3, 4, true, {}});
  EXPECT_EQ(again.size(), 2u);
}

}  // namespace
}  // namespace indigo::sched
