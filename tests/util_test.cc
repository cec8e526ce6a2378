// Tests for src/util: rng, hashing, stats, series, csv, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "scoped_env.h"
#include "util/cpufeatures.h"
#include "util/csv.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/series.h"
#include "util/stats.h"
#include "util/table.h"

namespace mhca {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStat rs;
  for (int i = 0; i < 20000; ++i) rs.add(rng.gaussian(5.0, 2.0));
  EXPECT_NEAR(rs.mean(), 5.0, 0.1);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.1);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng parent(3);
  Rng a = parent.split();
  Rng b = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Hash, SplitmixIsDeterministicAndMixing) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  EXPECT_NE(splitmix64(1), splitmix64(2));
  // Single-bit input changes should flip many output bits.
  const std::uint64_t d = splitmix64(0x1000) ^ splitmix64(0x1001);
  int bits = 0;
  for (int i = 0; i < 64; ++i) bits += (d >> i) & 1;
  EXPECT_GT(bits, 16);
}

TEST(Hash, UnitRangeAndSpread) {
  RunningStat rs;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const double u = hash_to_unit(splitmix64(i));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    rs.add(u);
  }
  EXPECT_NEAR(rs.mean(), 0.5, 0.02);
}

TEST(RunningStat, BasicMoments) {
  RunningStat rs;
  for (double x : {1.0, 2.0, 3.0, 4.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 4);
  EXPECT_DOUBLE_EQ(rs.mean(), 2.5);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 4.0);
  EXPECT_NEAR(rs.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(rs.sum(), 10.0);
}

TEST(RunningStat, EmptyAndSingle) {
  RunningStat rs;
  EXPECT_EQ(rs.count(), 0);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.add(7.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 7.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(Summary, MatchesRunningStat) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 3);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST(Series, CumulativeAverage) {
  const auto out = cumulative_average({2.0, 4.0, 6.0});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
  EXPECT_DOUBLE_EQ(out[2], 4.0);
}

TEST(Series, CumulativeSum) {
  const auto out = cumulative_sum({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(out.back(), 6.0);
}

TEST(Series, MovingAverageWindowOne) {
  const std::vector<double> xs{1.0, 5.0, 9.0};
  EXPECT_EQ(moving_average(xs, 1), xs);
}

TEST(Series, MovingAverageSmooths) {
  const auto out = moving_average({0.0, 10.0, 0.0, 10.0, 0.0}, 3);
  EXPECT_NEAR(out[2], 20.0 / 3.0, 1e-12);
}

TEST(Series, DownsampleKeepsEnds) {
  std::vector<double> xs(100);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  const auto out = downsample(xs, 5);
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out.front().first, 0u);
  EXPECT_EQ(out.back().first, 99u);
}

TEST(Series, DownsampleShortSeriesIdentity) {
  const std::vector<double> xs{1.0, 2.0};
  const auto out = downsample(xs, 10);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].second, 2.0);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "/tmp/mhca_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.row(1, 2.5);
    w.row(std::string("x,y"), 3);
    ASSERT_TRUE(w.ok());
  }
  std::ifstream in(path);
  std::string l1, l2, l3;
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l1, "a,b");
  EXPECT_EQ(l2, "1,2.5");
  EXPECT_EQ(l3, "\"x,y\",3");
  std::remove(path.c_str());
}

TEST(Table, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.row("x", 1);
  t.row("longer", 22);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, FixedFormatsDigits) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(SimdRequest, EnvOverridesRejectUnknownValues) {
  // Read afresh on every call (simd_level() caches only the first).
  {
    const ScopedEnv simd("MHCA_SIMD", "scalar");
    const ScopedEnv force("MHCA_FORCE_SCALAR", nullptr);
    EXPECT_EQ(util::requested_simd_level(), util::SimdLevel::kScalar);
  }
  {
    const ScopedEnv simd("MHCA_SIMD", "avx2");
    const ScopedEnv force("MHCA_FORCE_SCALAR", "1");
    EXPECT_EQ(util::requested_simd_level(), util::SimdLevel::kScalar);
  }
  const auto error_of = [] {
    try {
      util::requested_simd_level();
    } catch (const std::logic_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  {
    const ScopedEnv simd("MHCA_SIMD", "AVX2");
    const ScopedEnv force("MHCA_FORCE_SCALAR", "1");  // does not mask it
    const std::string msg = error_of();
    EXPECT_NE(msg.find("AVX2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scalar, avx2, avx512"), std::string::npos) << msg;
  }
  {
    const ScopedEnv simd("MHCA_SIMD", nullptr);
    const ScopedEnv force("MHCA_FORCE_SCALAR", "yes");
    const std::string msg = error_of();
    EXPECT_NE(msg.find("MHCA_FORCE_SCALAR"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid values"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace mhca
