// Tests for OutcomeDataset and its CSV persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "data/csv.h"
#include "data/dataset.h"
#include "testing_util.h"

namespace sfa::data {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("sfa_csv_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

OutcomeDataset SmallDataset(bool with_actual) {
  OutcomeDataset ds("small");
  if (with_actual) {
    ds.Add({-80.1, 25.7}, 1, 1);
    ds.Add({-80.2, 25.8}, 0, 1);
    ds.Add({-80.3, 25.9}, 1, 0);
  } else {
    ds.Add({-80.1, 25.7}, 1);
    ds.Add({-80.2, 25.8}, 0);
  }
  return ds;
}

TEST(OutcomeDataset, BasicAccounting) {
  const OutcomeDataset ds = SmallDataset(false);
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_FALSE(ds.has_actual());
  EXPECT_EQ(ds.PositiveCount(), 1u);
  EXPECT_DOUBLE_EQ(ds.PositiveRate(), 0.5);
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(OutcomeDataset, EmptyDataset) {
  OutcomeDataset ds;
  EXPECT_TRUE(ds.empty());
  EXPECT_DOUBLE_EQ(ds.PositiveRate(), 0.0);
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(OutcomeDatasetDeathTest, MixingGroundTruthAborts) {
  OutcomeDataset ds;
  ds.Add({0, 0}, 1, 1);
  EXPECT_DEATH(ds.Add({1, 1}, 0), "ground truth");
}

TEST(OutcomeDataset, ValidateRejectsNonBinaryLabels) {
  OutcomeDataset ds;
  ds.Add({0, 0}, 2);
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(OutcomeDataset, FilterByActual) {
  const OutcomeDataset ds = SmallDataset(true);
  auto positives = ds.FilterByActual(1);
  ASSERT_TRUE(positives.ok());
  EXPECT_EQ(positives->size(), 2u);
  EXPECT_EQ(positives->PositiveCount(), 1u);  // predictions 1 and 0
  auto negatives = ds.FilterByActual(0);
  ASSERT_TRUE(negatives.ok());
  EXPECT_EQ(negatives->size(), 1u);
}

TEST(OutcomeDataset, FilterByActualNeedsGroundTruth) {
  const OutcomeDataset ds = SmallDataset(false);
  EXPECT_TRUE(ds.FilterByActual(1).status().IsFailedPrecondition());
}

TEST(OutcomeDataset, CountDistinctLocations) {
  OutcomeDataset ds;
  ds.Add({1, 1}, 0);
  ds.Add({1, 1}, 1);
  ds.Add({2, 2}, 0);
  EXPECT_EQ(ds.CountDistinctLocations(), 2u);
}

TEST(OutcomeDataset, SummaryMentionsNameAndCounts) {
  const OutcomeDataset ds = SmallDataset(false);
  const std::string s = ds.Summary();
  EXPECT_NE(s.find("small"), std::string::npos);
  EXPECT_NE(s.find("n=2"), std::string::npos);
}

TEST(ParseCsvLine, PlainFields) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParseCsvLine, QuotedFieldsWithCommasAndEscapes) {
  auto fields = ParseCsvLine(R"("x,y",plain,"he said ""hi""")");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[0], "x,y");
  EXPECT_EQ((*fields)[1], "plain");
  EXPECT_EQ((*fields)[2], "he said \"hi\"");
}

TEST(ParseCsvLine, ToleratesCrLf) {
  auto fields = ParseCsvLine("a,b\r");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[1], "b");
}

TEST(ParseCsvLine, RejectsMalformedQuotes) {
  EXPECT_FALSE(ParseCsvLine(R"(a,"unterminated)").ok());
  EXPECT_FALSE(ParseCsvLine(R"(mid"quote,b)").ok());
}

TEST_F(CsvTest, RoundTripWithoutActual) {
  const OutcomeDataset original = SmallDataset(false);
  ASSERT_TRUE(WriteCsv(original, path()).ok());
  auto loaded = ReadCsv(path());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), original.size());
  EXPECT_FALSE(loaded->has_actual());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(loaded->locations()[i].x, original.locations()[i].x, 1e-8);
    EXPECT_NEAR(loaded->locations()[i].y, original.locations()[i].y, 1e-8);
    EXPECT_EQ(loaded->predicted()[i], original.predicted()[i]);
  }
}

TEST_F(CsvTest, RoundTripWithActual) {
  const OutcomeDataset original = SmallDataset(true);
  ASSERT_TRUE(WriteCsv(original, path()).ok());
  auto loaded = ReadCsv(path());
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->has_actual());
  EXPECT_EQ(loaded->actual(), original.actual());
}

TEST_F(CsvTest, ReadAcceptsReorderedAndMixedCaseHeader) {
  std::ofstream out(path());
  out << "Predicted,LAT,lon,ACTUAL\n1,25.7,-80.1,0\n0,25.8,-80.2,1\n";
  out.close();
  auto loaded = ReadCsv(path());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_DOUBLE_EQ(loaded->locations()[0].x, -80.1);
  EXPECT_EQ(loaded->predicted()[0], 1);
  EXPECT_EQ(loaded->actual()[1], 1);
}

TEST_F(CsvTest, ReadSkipsBlankLines) {
  std::ofstream out(path());
  out << "lon,lat,predicted\n1,2,1\n\n3,4,0\n";
  out.close();
  auto loaded = ReadCsv(path());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
}

TEST_F(CsvTest, ReadRejectsMissingColumns) {
  std::ofstream out(path());
  out << "lon,lat\n1,2\n";
  out.close();
  EXPECT_TRUE(ReadCsv(path()).status().IsParseError());
}

TEST_F(CsvTest, ReadRejectsBadLabel) {
  std::ofstream out(path());
  out << "lon,lat,predicted\n1,2,7\n";
  out.close();
  EXPECT_TRUE(ReadCsv(path()).status().IsParseError());
}

TEST_F(CsvTest, ReadRejectsBadCoordinate) {
  std::ofstream out(path());
  out << "lon,lat,predicted\nabc,2,1\n";
  out.close();
  const Status s = ReadCsv(path()).status();
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST_F(CsvTest, ReadRejectsShortRows) {
  std::ofstream out(path());
  out << "lon,lat,predicted\n1,2\n";
  out.close();
  EXPECT_TRUE(ReadCsv(path()).status().IsParseError());
}

// Every byte mutant of a small valid file either reads or fails with
// ParseError / InvalidArgument, never aborts.
TEST_F(CsvTest, ByteMutantsReadOrFailCleanly) {
  const std::string seed =
      "lon,lat,predicted,actual\n-80.1,25.7,1,0\n\"-80.2\",2.5e1,0,1\r\n";
  const auto read = [&](const std::string& bytes) {
    std::ofstream(path(), std::ios::binary | std::ios::trunc) << bytes;
    return ReadCsv(path());
  };
  auto original = read(seed);
  ASSERT_TRUE(original.ok()) << original.status();
  ASSERT_EQ(original->size(), 2u);
  size_t checked = 0;
  for (const std::string& bytes : core::testing::ByteMutants(seed)) {
    const auto loaded = read(bytes);
    const Status& s = loaded.status();
    EXPECT_TRUE(s.ok() || s.IsParseError() || s.IsInvalidArgument())
        << "mutant of " << bytes.size() << " bytes: " << s.ToString();
    if (loaded.ok()) {
      EXPECT_LE(loaded->size(), 2u);
    }
    ++checked;
  }
  EXPECT_GT(checked, 800u);
}

TEST(Csv, ReadMissingFileIsIOError) {
  EXPECT_TRUE(ReadCsv("/nonexistent/definitely/not/here.csv").status().IsIOError());
}

TEST(Csv, WriteToInvalidPathIsIOError) {
  EXPECT_TRUE(
      WriteCsv(SmallDataset(false), "/nonexistent/dir/file.csv").IsIOError());
}

}  // namespace
}  // namespace sfa::data
