// Unit tests for the common kernel: Status/Result, Value semantics,
// interning, union-find and CRC32C.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/interner.h"
#include "common/status.h"
#include "common/union_find.h"
#include "common/value.h"

namespace ged {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad literal");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad literal");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad literal");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r(std::string("payload"));
  std::string s = r.Take();
  EXPECT_EQ(s, "payload");
}

TEST(Value, IntDoubleEquality) {
  EXPECT_EQ(Value(1), Value(1.0));
  EXPECT_NE(Value(1), Value(1.5));
  EXPECT_EQ(Value(1).Hash(), Value(1.0).Hash());
}

TEST(Value, KindsAreDistinct) {
  EXPECT_NE(Value("1"), Value(1));
  EXPECT_NE(Value(true), Value(1));
  EXPECT_NE(Value(false), Value("false"));
}

TEST(Value, TotalOrderWithinNumbers) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value(1.5), Value(2));
  EXPECT_GT(Value(3), Value(2.5));
  EXPECT_LE(Value(2), Value(2.0));
}

TEST(Value, TotalOrderAcrossKinds) {
  // bool < number < string (documented implementation order).
  EXPECT_LT(Value(true), Value(0));
  EXPECT_LT(Value(1000000), Value("a"));
  EXPECT_LT(Value(false), Value(true));
}

TEST(Value, StringOrderIsLexicographic) {
  EXPECT_LT(Value("alpha"), Value("beta"));
  EXPECT_LT(Value("a"), Value(std::string("a\x01")));
}

TEST(Value, ToStringQuotesStrings) {
  EXPECT_EQ(Value("x\"y").ToString(), "\"x\\\"y\"");
  EXPECT_EQ(Value(7).ToString(), "7");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

TEST(Interner, WildcardIsSymbolZero) {
  EXPECT_EQ(Sym("_"), kWildcard);
  EXPECT_EQ(SymName(kWildcard), "_");
}

TEST(Interner, RoundTrips) {
  Symbol a = Sym("person");
  Symbol b = Sym("product");
  EXPECT_NE(a, b);
  EXPECT_EQ(Sym("person"), a);
  EXPECT_EQ(SymName(a), "person");
}

TEST(Interner, FindDoesNotIntern) {
  Interner interner;
  EXPECT_EQ(interner.Find("ghost"), Interner::kNotInterned);
  Symbol s = interner.Intern("ghost");
  EXPECT_EQ(interner.Find("ghost"), s);
}

TEST(UnionFind, SingletonsAtStart) {
  UnionFind uf(4);
  EXPECT_EQ(uf.num_classes(), 4u);
  EXPECT_FALSE(uf.Same(0, 1));
}

TEST(UnionFind, UnionMergesTransitively) {
  UnionFind uf(5);
  uf.Union(0, 1);
  uf.Union(1, 2);
  EXPECT_TRUE(uf.Same(0, 2));
  EXPECT_EQ(uf.num_classes(), 3u);
  EXPECT_EQ(uf.ClassSize(2), 3u);
}

TEST(UnionFind, UnionReturnsSentinelWhenAlreadyMerged) {
  UnionFind uf(2);
  EXPECT_NE(uf.Union(0, 1), UINT32_MAX);
  EXPECT_EQ(uf.Union(0, 1), UINT32_MAX);
}

TEST(UnionFind, AddGrows) {
  UnionFind uf(1);
  uint32_t x = uf.Add();
  EXPECT_EQ(x, 1u);
  EXPECT_EQ(uf.num_classes(), 2u);
}

// RFC 3720 (iSCSI) appendix B.4 check values, plus the common "123456789"
// check value of CRC-32C.
TEST(Crc32c, MatchesRfc3720CheckValues) {
  std::string zeros(32, '\0'), ones(32, '\xff'), up(32, 0), down(32, 0);
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  for (auto crc : {Crc32c, Crc32cPortable}) {
    EXPECT_EQ(crc(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
    EXPECT_EQ(crc(ones.data(), ones.size(), 0), 0x62A8AB43u);
    EXPECT_EQ(crc(up.data(), up.size(), 0), 0x46DD794Eu);
    EXPECT_EQ(crc(down.data(), down.size(), 0), 0x113FDB5Cu);
    EXPECT_EQ(crc("123456789", 9, 0), 0xE3069283u);
    EXPECT_EQ(crc("", 0, 0), 0u);
  }
}

// Crc32c (the SSE4.2 instruction where the CPU has it) ≡ the table
// implementation at every length up to 1024 and every start alignment, and
// both extend over concatenated buffers.
TEST(Crc32c, DispatchedEqualsTableAtEveryLengthAndAlignment) {
  std::vector<unsigned char> buf(1024 + 8);
  uint32_t x = 0x12345678u;
  for (unsigned char& c : buf) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<unsigned char>(x >> 24);
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 1024; ++len) {
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(Crc32c(p, len), Crc32cPortable(p, len))
          << "len " << len << " align " << align
          << " hardware=" << Crc32cHardware();
    }
  }
  const size_t split = 37;
  EXPECT_EQ(Crc32c(buf.data() + split, 500, Crc32c(buf.data(), split)),
            Crc32c(buf.data(), split + 500));
  EXPECT_EQ(Crc32cPortable(buf.data() + split, 500,
                           Crc32cPortable(buf.data(), split)),
            Crc32c(buf.data(), split + 500));
}

}  // namespace
}  // namespace ged
