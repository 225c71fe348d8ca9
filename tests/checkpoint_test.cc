// Checkpoint format tests: Graph / FrozenGraph round-trips, section CRC
// verification against bit flips and truncation, atomic tmp+rename writes
// (a failpoint-injected failure must never leave a half checkpoint under
// the final name), listing and GC.

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "graph/frozen.h"
#include "graph/graph.h"
#include "graph/io.h"

namespace ged {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/gedlib_ckpt_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

void RemoveTree(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteAll(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

Graph SampleGraph() {
  Graph g;
  for (int i = 0; i < 12; ++i) {
    NodeId v = g.AddNode("kind_" + std::to_string(i % 3));
    g.SetAttr(v, "idx", Value(int64_t{i}));
    if (i % 2 == 0) g.SetAttr(v, "name", Value("node \"quoted\" " +
                                               std::to_string(i)));
    if (i % 3 == 0) g.SetAttr(v, "weight", Value(0.25 * i));
    if (i % 4 == 0) g.SetAttr(v, "odd", Value(i % 2 == 1));
  }
  for (int i = 0; i < 12; ++i) {
    g.AddEdge(i, "next", (i + 1) % 12);
    if (i % 3 == 0) g.AddEdge(i, "skip", (i + 4) % 12);
  }
  return g;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir(); }
  void TearDown() override {
    failpoints::DisableAll();
    RemoveTree(dir_);
  }
  std::string dir_;
};

TEST_F(CheckpointTest, GraphRoundTrip) {
  Graph g = SampleGraph();
  auto saved = SaveCheckpoint(g, 17, dir_);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  auto loaded = LoadCheckpoint(saved.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().epoch, 17u);
  EXPECT_TRUE(loaded.value().graph == g);
}

TEST_F(CheckpointTest, FrozenGraphRoundTrip) {
  Graph g = SampleGraph();
  FrozenGraph frozen = FrozenGraph::Freeze(g);
  auto saved = SaveCheckpoint(frozen, 5, dir_);
  ASSERT_TRUE(saved.ok());
  auto loaded = LoadCheckpoint(saved.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The CSR snapshot preserves nodes, labels, edges and attrs exactly, so
  // the rebuilt mutable graph equals the original source graph.
  EXPECT_TRUE(loaded.value().graph == g);
}

TEST_F(CheckpointTest, EmptyGraphRoundTrip) {
  Graph g;
  auto saved = SaveCheckpoint(g, 0, dir_);
  ASSERT_TRUE(saved.ok());
  auto loaded = LoadCheckpoint(saved.value());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().graph.NumNodes(), 0u);
  EXPECT_EQ(loaded.value().epoch, 0u);
}

TEST_F(CheckpointTest, EveryBitFlipIsDetected) {
  Graph g = SampleGraph();
  auto saved = SaveCheckpoint(g, 3, dir_);
  ASSERT_TRUE(saved.ok());
  const std::string full = ReadAll(saved.value());
  // Flipping any single byte must never yield a silently different graph:
  // either the load fails (the expected outcome) or — for bytes the format
  // does not cover, of which there are none — the graph is unchanged.
  // Stride through the file to keep runtime reasonable while still hitting
  // header, every section header, and every section payload.
  for (size_t i = 0; i < full.size(); i += 7) {
    std::string mutated = full;
    mutated[i] ^= 0x10;
    WriteAll(saved.value(), mutated);
    auto loaded = LoadCheckpoint(saved.value());
    if (loaded.ok()) {
      EXPECT_TRUE(loaded.value().graph == g ||
                  loaded.value().epoch != 3u)
          << "flip at byte " << i << " changed the graph silently";
      // The epoch itself is outside any section CRC; a flip there is
      // caught one level up by recovery's epoch-gap check.
    } else {
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << loaded.status().ToString();
    }
  }
}

TEST_F(CheckpointTest, TruncationIsDataLoss) {
  Graph g = SampleGraph();
  auto saved = SaveCheckpoint(g, 3, dir_);
  ASSERT_TRUE(saved.ok());
  const std::string full = ReadAll(saved.value());
  for (size_t keep : {size_t{0}, size_t{4}, size_t{9}, full.size() / 2,
                      full.size() - 1}) {
    WriteAll(saved.value(), full.substr(0, keep));
    auto loaded = LoadCheckpoint(saved.value());
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  }
}

TEST_F(CheckpointTest, UnknownSectionIdsAreSkipped) {
  Graph g = SampleGraph();
  auto saved = SaveCheckpoint(g, 3, dir_);
  ASSERT_TRUE(saved.ok());
  std::string data = ReadAll(saved.value());

  // Append a CRC-valid section with an unknown id — including id 0, which
  // must not be mistaken for a known section and clobber a parsed one —
  // and bump the section count (u32 after magic + version + epoch).
  for (uint32_t id : {uint32_t{0}, uint32_t{7}}) {
    std::string mutated = data;
    const std::string payload = "not-a-real-section";
    binio::PutU32(&mutated, id);
    binio::PutU64(&mutated, payload.size());
    binio::PutU32(&mutated, Crc32c(payload.data(), payload.size()));
    mutated.append(payload);
    mutated[8 + 4 + 8] = 4;  // section count 3 -> 4
    WriteAll(saved.value(), mutated);
    auto loaded = LoadCheckpoint(saved.value());
    ASSERT_TRUE(loaded.ok()) << "id " << id << ": "
                             << loaded.status().ToString();
    EXPECT_TRUE(loaded.value().graph == g) << "id " << id;
  }
}

// A CRC-valid v1 checkpoint (epoch 9) around the given section payloads, so
// a test can feed LoadCheckpoint records SaveCheckpoint never writes.
std::string CheckpointBytes(const std::string& nodes, const std::string& edges,
                            const std::string& attrs) {
  std::string out = "GEDCKPT1";
  binio::PutU32(&out, 1);  // version
  binio::PutU64(&out, 9);  // epoch
  binio::PutU32(&out, 3);  // section count
  uint32_t id = 1;
  for (const std::string* payload : {&nodes, &edges, &attrs}) {
    binio::PutU32(&out, id++);
    binio::PutU64(&out, payload->size());
    binio::PutU32(&out, Crc32c(payload->data(), payload->size()));
    out += *payload;
  }
  return out;
}

// Nodes section of `n` nodes labeled "n".
std::string NodesPayload(uint64_t n) {
  std::string nodes;
  binio::PutU64(&nodes, n);
  for (uint64_t v = 0; v < n; ++v) binio::PutStr(&nodes, "n");
  return nodes;
}

// Edges section of the given (src, dst) records, all labeled "e".
std::string EdgesPayload(const std::vector<std::pair<uint32_t, uint32_t>>& es) {
  std::string edges;
  binio::PutU64(&edges, es.size());
  for (const auto& [src, dst] : es) {
    binio::PutU32(&edges, src);
    binio::PutU32(&edges, dst);
    binio::PutStr(&edges, "e");
  }
  return edges;
}

std::string NoAttrsPayload() {
  std::string attrs;
  binio::PutU64(&attrs, 0);
  return attrs;
}

TEST_F(CheckpointTest, RepeatedEdgeRecordLoadsOnce) {
  const std::string path = dir_ + "/" + CheckpointFileName(9);
  WriteAll(path, CheckpointBytes(NodesPayload(3),
                                 EdgesPayload({{0, 1}, {1, 2}, {0, 1}}),
                                 NoAttrsPayload()));
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Graph& g = loaded.value().graph;
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.InDegree(1), 1u);
  Graph want;
  for (int i = 0; i < 3; ++i) want.AddNode("n");
  want.AddEdge(0, "e", 1);
  want.AddEdge(1, "e", 2);
  EXPECT_TRUE(g == want);
}

TEST_F(CheckpointTest, CrcValidButMalformedSectionsAreDataLoss) {
  const std::string path = dir_ + "/" + CheckpointFileName(9);
  std::string edges_with_trailer = EdgesPayload({{0, 1}});
  edges_with_trailer.push_back('\0');
  std::string nodes_with_trailer = NodesPayload(2);
  nodes_with_trailer.push_back('x');
  std::string attrs_with_trailer = NoAttrsPayload();
  attrs_with_trailer.push_back('x');
  std::string huge_node_count;
  binio::PutU64(&huge_node_count, uint64_t{1} << 40);
  const struct {
    const char* what;
    std::string bytes;
  } cases[] = {
      {"dst out of range", CheckpointBytes(NodesPayload(2),
                                           EdgesPayload({{0, 1}, {1, 2}}),
                                           NoAttrsPayload())},
      {"src out of range", CheckpointBytes(NodesPayload(2),
                                           EdgesPayload({{5, 0}}),
                                           NoAttrsPayload())},
      {"edges trailing bytes",
       CheckpointBytes(NodesPayload(2), edges_with_trailer, NoAttrsPayload())},
      {"nodes trailing bytes",
       CheckpointBytes(nodes_with_trailer, EdgesPayload({}), NoAttrsPayload())},
      {"attrs trailing bytes",
       CheckpointBytes(NodesPayload(2), EdgesPayload({}), attrs_with_trailer)},
      {"node count past the payload",
       CheckpointBytes(huge_node_count, EdgesPayload({}), NoAttrsPayload())},
  };
  for (const auto& c : cases) {
    WriteAll(path, c.bytes);
    auto loaded = LoadCheckpoint(path);
    ASSERT_FALSE(loaded.ok()) << c.what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << c.what;
  }
}

// A checkpoint written by an earlier build (table CRC32C, adjacency plus
// hash-set edge storage): the v1 bytes and their CRCs must neither change
// on save nor stop loading.
TEST_F(CheckpointTest, EarlierV1FileLoadsAndSavesByteIdentical) {
  const std::string earlier(
      "\x47\x45\x44\x43\x4b\x50\x54\x31\x01\x00\x00\x00\x09\x00\x00\x00"
      "\x00\x00\x00\x00\x03\x00\x00\x00\x01\x00\x00\x00\x28\x00\x00\x00"
      "\x00\x00\x00\x00\x57\x9d\x1c\x48\x02\x00\x00\x00\x00\x00\x00\x00"
      "\x0d\x00\x00\x00\x67\x6f\x6c\x64\x65\x6e\x5f\x70\x65\x72\x73\x6f"
      "\x6e\x0b\x00\x00\x00\x67\x6f\x6c\x64\x65\x6e\x5f\x63\x69\x74\x79"
      "\x02\x00\x00\x00\x39\x00\x00\x00\x00\x00\x00\x00\xd4\x04\x80\x7c"
      "\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"
      "\x0f\x00\x00\x00\x67\x6f\x6c\x64\x65\x6e\x5f\x6c\x69\x76\x65\x73"
      "\x5f\x69\x6e\x01\x00\x00\x00\x00\x00\x00\x00\x0a\x00\x00\x00\x67"
      "\x6f\x6c\x64\x65\x6e\x5f\x68\x61\x73\x03\x00\x00\x00\x3f\x00\x00"
      "\x00\x00\x00\x00\x00\x74\x50\x57\x93\x02\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x0a\x00\x00\x00\x67\x6f\x6c\x64\x65\x6e\x5f"
      "\x61\x67\x65\x01\x2a\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"
      "\x0b\x00\x00\x00\x67\x6f\x6c\x64\x65\x6e\x5f\x6e\x61\x6d\x65\x03"
      "\x04\x00\x00\x00\x4f\x73\x6c\x6f",
      232);
  Graph g;
  NodeId a = g.AddNode("golden_person"), b = g.AddNode("golden_city");
  g.AddEdge(a, "golden_lives_in", b);
  g.AddEdge(b, "golden_has", a);
  g.SetAttr(a, "golden_age", Value(int64_t{42}));
  g.SetAttr(b, "golden_name", Value("Oslo"));

  auto saved = SaveCheckpoint(g, 9, dir_);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(ReadAll(saved.value()), earlier);

  WriteAll(saved.value(), earlier);
  auto loaded = LoadCheckpoint(saved.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().epoch, 9u);
  EXPECT_TRUE(loaded.value().graph == g);
}

TEST_F(CheckpointTest, MissingFileIsUnavailable) {
  auto loaded = LoadCheckpoint(dir_ + "/checkpoint-000000000009.ckpt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
}

TEST_F(CheckpointTest, InjectedFailureLeavesNoFinalFile) {
  Graph g = SampleGraph();
  for (const char* fp : {"checkpoint.write", "checkpoint.fsync",
                         "checkpoint.rename"}) {
    failpoints::Enable(fp, FailpointAction::Error());
    auto saved = SaveCheckpoint(g, 9, dir_);
    EXPECT_FALSE(saved.ok()) << fp;
    failpoints::DisableAll();
    EXPECT_TRUE(ListCheckpoints(dir_).empty())
        << fp << " left a visible checkpoint";
    // No tmp litter either.
    auto loaded = LoadCheckpoint(dir_ + "/" + CheckpointFileName(9) + ".tmp");
    EXPECT_FALSE(loaded.ok()) << fp << " left a tmp file";
  }
  // After the faults clear, the same save succeeds.
  auto saved = SaveCheckpoint(g, 9, dir_);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(ListCheckpoints(dir_).size(), 1u);
}

TEST_F(CheckpointTest, ListingSortsByEpochAndGcKeepsNewest) {
  Graph g = SampleGraph();
  for (uint64_t epoch : {30u, 7u, 100u}) {
    ASSERT_TRUE(SaveCheckpoint(g, epoch, dir_).ok());
  }
  auto list = ListCheckpoints(dir_);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].epoch, 7u);
  EXPECT_EQ(list[1].epoch, 30u);
  EXPECT_EQ(list[2].epoch, 100u);

  ASSERT_TRUE(RemoveObsoleteCheckpoints(dir_, 100).ok());
  list = ListCheckpoints(dir_);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].epoch, 100u);
}

}  // namespace
}  // namespace ged
