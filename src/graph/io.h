// Graph serialization: the line-oriented text format and the checksummed
// binary checkpoint format.
//
// Text format (written by Graph::ToString, read by ParseGraph):
//
//   # comment
//   node <id> <label> [<attr>=<value> ...]
//   edge <src> <label> <dst>
//
// Values are integers (42), doubles (3.5), booleans (true/false) or quoted
// strings ("Bleach", with \" and \\ escapes — no other escapes exist). Node
// ids must be declared densely in increasing order starting at 0, which is
// what the writer emits. The parser is strict: ids and numbers must consume
// their whole token and fit their type, strings must close their quote, and
// every malformed input is an InvalidArgument Status — adversarial input can
// never reach undefined behavior.
//
// Checkpoint format (binary, little-endian via common/binio.h):
//
//   8-byte magic "GEDCKPT1"
//   u32 version (currently 1)
//   u64 epoch          — commit epoch the snapshot captures
//   u32 section_count
//   section_count × (u32 section_id | u64 payload_len | u32 crc32c | payload)
//
// Sections (ids fixed; labels and attribute names travel as strings because
// Symbols are process-local interner ids):
//   1 nodes: u64 n | n × str label
//   2 edges: u64 m | m × (u32 src, u32 dst, str label)
//   3 attrs: u64 k | k × (u32 node, str attr, value)
//
// SaveCheckpoint writes to a temporary file and renames it into place, so a
// crash mid-write never leaves a half checkpoint under the final name; every
// section carries its own CRC32C, so torn or bit-flipped files load as
// kDataLoss, never as a silently wrong graph. Recovery (incr/incremental.h
// Recover) is LoadCheckpoint + WAL-suffix replay (incr/wal.h).

#ifndef GEDLIB_GRAPH_IO_H_
#define GEDLIB_GRAPH_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace ged {

class FrozenGraph;

/// Parses a graph from the text format described above.
Result<Graph> ParseGraph(std::string_view text);

/// Serializes `g` in the text format (same as g.ToString()).
std::string SerializeGraph(const Graph& g);

/// Parses a single value token: 42, 3.5, true, false, or "str".
Result<Value> ParseValue(std::string_view token);

// ----- binary checkpoints ---------------------------------------------------

/// "checkpoint-<epoch>.ckpt" (zero-padded so names sort by epoch).
std::string CheckpointFileName(uint64_t epoch);

/// Writes a checkpoint of `g` stamped with `epoch` into `dir` (tmp file +
/// fsync + rename + directory fsync). Returns the final path. The FrozenGraph
/// overload serves the incremental validator's re-freeze piggyback: the
/// freshly compiled CSR snapshot is exactly the state worth persisting.
Result<std::string> SaveCheckpoint(const Graph& g, uint64_t epoch,
                                   const std::string& dir);
Result<std::string> SaveCheckpoint(const FrozenGraph& g, uint64_t epoch,
                                   const std::string& dir);

/// A loaded checkpoint: the rebuilt graph plus its commit epoch.
struct Checkpoint {
  Graph graph;
  uint64_t epoch = 0;
};

/// Reads a checkpoint file, verifying magic, version and every section CRC.
/// Corruption (wrong magic, truncation, checksum mismatch, dangling ids,
/// trailing or duplicate sections) fails with kDataLoss; a missing file is
/// kUnavailable. The file is read with one fstat-sized read and each section
/// is decoded in one pass: labels and attribute names are interned once per
/// distinct string, and the edges go in through one Graph::AddEdges batch
/// (a repeated edge record collapses to one edge).
Result<Checkpoint> LoadCheckpoint(const std::string& path);

/// The checkpoint files under `dir`, sorted by epoch (ascending). Recovery
/// loads the newest and falls back to older ones if it is unreadable.
struct CheckpointInfo {
  uint64_t epoch = 0;
  std::string name;
};
std::vector<CheckpointInfo> ListCheckpoints(const std::string& dir);

/// Deletes checkpoints older than `keep_epoch` (the newest adopted one).
Status RemoveObsoleteCheckpoints(const std::string& dir, uint64_t keep_epoch);

}  // namespace ged

#endif  // GEDLIB_GRAPH_IO_H_
