#include "graph/io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/binio.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "graph/frozen.h"

namespace ged {

namespace {

// Splits a line into whitespace-separated tokens, keeping quoted strings
// (including their quotes) as single tokens.
Result<std::vector<std::string>> Tokenize(std::string_view line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    if (line[i] == '#') break;  // comment to end of line
    std::string tok;
    bool in_quote = false;
    while (i < line.size()) {
      char c = line[i];
      if (in_quote) {
        tok.push_back(c);
        if (c == '\\' && i + 1 < line.size()) {
          tok.push_back(line[++i]);
        } else if (c == '"') {
          in_quote = false;
        }
        ++i;
      } else if (c == '"') {
        in_quote = true;
        tok.push_back(c);
        ++i;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        break;
      } else {
        tok.push_back(c);
        ++i;
      }
    }
    if (in_quote) {
      return Status::InvalidArgument("unterminated string in: " +
                                     std::string(line));
    }
    out.push_back(std::move(tok));
  }
  return out;
}

/// Strict full-token decimal node-id parse: rejects signs, garbage suffixes
/// ("12abc"), empty tokens, and anything that does not fit a NodeId — the
/// legacy strtoul silently accepted all four.
Result<NodeId> ParseNodeId(const std::string& token) {
  NodeId id = 0;
  auto [p, ec] =
      std::from_chars(token.data(), token.data() + token.size(), id);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("node id out of range: " + token);
  }
  if (ec != std::errc() || p != token.data() + token.size()) {
    return Status::InvalidArgument("bad node id: " + token);
  }
  return id;
}

}  // namespace

Result<Value> ParseValue(std::string_view token) {
  if (token.empty()) return Status::InvalidArgument("empty value");
  if (token == "true") return Value(true);
  if (token == "false") return Value(false);
  if (token.front() == '"') {
    if (token.size() < 2 || token.back() != '"') {
      return Status::InvalidArgument("bad string literal: " +
                                     std::string(token));
    }
    std::string s;
    size_t i = 1;
    const size_t end = token.size() - 1;
    while (i < end) {
      char c = token[i];
      if (c == '\\') {
        // Only the two escapes the writer emits exist; an escape that runs
        // into the closing quote means that quote was escaped — i.e. the
        // literal never actually closed.
        if (i + 1 >= end) {
          return Status::InvalidArgument("dangling escape in string: " +
                                         std::string(token));
        }
        char n = token[i + 1];
        if (n != '"' && n != '\\') {
          return Status::InvalidArgument(
              std::string("unsupported escape \\") + n + " in: " +
              std::string(token));
        }
        s.push_back(n);
        i += 2;
      } else if (c == '"') {
        return Status::InvalidArgument("unescaped quote inside string: " +
                                       std::string(token));
      } else {
        s.push_back(c);
        ++i;
      }
    }
    return Value(std::move(s));
  }
  // Number: int unless it contains . e E.
  bool is_double = token.find_first_of(".eE") != std::string_view::npos;
  if (is_double) {
    double d = 0;
    auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(),
                                   d, std::chars_format::general);
    if (ec == std::errc::result_out_of_range) {
      return Status::InvalidArgument("number out of range: " +
                                     std::string(token));
    }
    if (ec != std::errc() || p != token.data() + token.size()) {
      return Status::InvalidArgument("bad number: " + std::string(token));
    }
    return Value(d);
  }
  int64_t i = 0;
  auto [p, ec] =
      std::from_chars(token.data(), token.data() + token.size(), i);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("integer out of range: " +
                                   std::string(token));
  }
  if (ec != std::errc() || p != token.data() + token.size()) {
    return Status::InvalidArgument("bad value token: " + std::string(token));
  }
  return Value(i);
}

Result<Graph> ParseGraph(std::string_view text) {
  Graph g;
  std::istringstream in{std::string(text)};
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto toks_r = Tokenize(line);
    if (!toks_r.ok()) return toks_r.status();
    const auto& toks = toks_r.value();
    if (toks.empty()) continue;
    auto err = [&](const std::string& msg) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": " + msg);
    };
    if (toks[0] == "node") {
      if (toks.size() < 3) return err("node needs: node <id> <label> ...");
      auto want = ParseNodeId(toks[1]);
      if (!want.ok()) return err(want.status().message());
      if (want.value() != g.NumNodes()) {
        return err("node ids must be dense and increasing, got " + toks[1]);
      }
      NodeId v = g.AddNode(Sym(toks[2]));
      for (size_t i = 3; i < toks.size(); ++i) {
        size_t eq = toks[i].find('=');
        if (eq == std::string::npos) return err("bad attr: " + toks[i]);
        if (eq == 0) return err("empty attribute name in: " + toks[i]);
        auto val = ParseValue(std::string_view(toks[i]).substr(eq + 1));
        if (!val.ok()) return err(val.status().message());
        g.SetAttr(v, Sym(toks[i].substr(0, eq)), val.Take());
      }
    } else if (toks[0] == "edge") {
      if (toks.size() != 4) return err("edge needs: edge <src> <label> <dst>");
      auto s = ParseNodeId(toks[1]);
      if (!s.ok()) return err(s.status().message());
      auto d = ParseNodeId(toks[3]);
      if (!d.ok()) return err(d.status().message());
      if (s.value() >= g.NumNodes() || d.value() >= g.NumNodes()) {
        return err("edge endpoint out of range");
      }
      g.AddEdge(s.value(), Sym(toks[2]), d.value());
    } else {
      return err("unknown directive: " + toks[0]);
    }
  }
  return g;
}

std::string SerializeGraph(const Graph& g) { return g.ToString(); }

// ----- binary checkpoints ---------------------------------------------------

namespace {

constexpr char kCkptMagic[8] = {'G', 'E', 'D', 'C', 'K', 'P', 'T', '1'};
constexpr uint32_t kCkptVersion = 1;
constexpr uint32_t kSectionNodes = 1;
constexpr uint32_t kSectionEdges = 2;
constexpr uint32_t kSectionAttrs = 3;

std::string ErrnoMessage(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// Per-node attribute visitation, bridging Graph's pair vector and
// FrozenGraph's columnar spans.
template <typename Fn>
void ForEachAttr(const Graph& g, NodeId v, Fn&& fn) {
  for (const auto& [attr, value] : g.attrs(v)) fn(attr, value);
}
template <typename Fn>
void ForEachAttr(const FrozenGraph& g, NodeId v, Fn&& fn) {
  auto names = g.AttrNames(v);
  auto values = g.AttrValues(v);
  for (size_t i = 0; i < names.size(); ++i) fn(names[i], values[i]);
}

void PutSection(std::string* out, uint32_t id, const std::string& payload) {
  binio::PutU32(out, id);
  binio::PutU64(out, payload.size());
  binio::PutU32(out, Crc32c(payload.data(), payload.size()));
  out->append(payload);
}

template <typename GraphT>
std::string EncodeCheckpoint(const GraphT& g, uint64_t epoch) {
  std::string out;
  out.append(kCkptMagic, sizeof(kCkptMagic));
  binio::PutU32(&out, kCkptVersion);
  binio::PutU64(&out, epoch);
  binio::PutU32(&out, 3);  // section count

  const NodeId n = static_cast<NodeId>(g.NumNodes());
  std::string nodes;
  binio::PutU64(&nodes, n);
  for (NodeId v = 0; v < n; ++v) binio::PutStr(&nodes, SymName(g.label(v)));
  PutSection(&out, kSectionNodes, nodes);

  std::string edges;
  binio::PutU64(&edges, g.NumEdges());
  for (NodeId v = 0; v < n; ++v) {
    for (const Edge& e : g.out(v)) {
      binio::PutU32(&edges, v);
      binio::PutU32(&edges, e.other);
      binio::PutStr(&edges, SymName(e.label));
    }
  }
  PutSection(&out, kSectionEdges, edges);

  uint64_t num_attrs = 0;
  for (NodeId v = 0; v < n; ++v) {
    ForEachAttr(g, v, [&](AttrId, const Value&) { ++num_attrs; });
  }
  std::string attrs;
  binio::PutU64(&attrs, num_attrs);
  for (NodeId v = 0; v < n; ++v) {
    ForEachAttr(g, v, [&](AttrId attr, const Value& value) {
      binio::PutU32(&attrs, v);
      binio::PutStr(&attrs, SymName(attr));
      binio::PutValue(&attrs, value);
    });
  }
  PutSection(&out, kSectionAttrs, attrs);
  return out;
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::Unavailable(ErrnoMessage("open dir " + dir));
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Unavailable(ErrnoMessage("fsync dir " + dir));
  return Status::OK();
}

Status WriteFileDurably(const std::string& path, const std::string& data) {
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return Status::Unavailable(ErrnoMessage("create " + path));
  const char* p = data.data();
  size_t n = data.size();
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Unavailable(ErrnoMessage("write " + path));
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  {
    Status injected;
    GEDLIB_FAILPOINT_STATUS("checkpoint.fsync", injected);
    if (!injected.ok()) {
      ::close(fd);
      return injected;
    }
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::Unavailable(ErrnoMessage("fsync " + path));
  }
  if (::close(fd) != 0) {
    return Status::Unavailable(ErrnoMessage("close " + path));
  }
  return Status::OK();
}

// Reads all of `path` with one read sized by fstat (repeated only on a
// short read or EINTR).
Result<std::string> ReadWholeFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::Unavailable(ErrnoMessage("open " + path));
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    Status err = Status::Unavailable(ErrnoMessage("stat " + path));
    ::close(fd);
    return err;
  }
  std::string data(static_cast<size_t>(st.st_size), '\0');
  size_t got = 0;
  while (got < data.size()) {
    ssize_t n = ::read(fd, data.data() + got, data.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status err = Status::Unavailable(ErrnoMessage("read " + path));
      ::close(fd);
      return err;
    }
    if (n == 0) break;  // shrank since fstat: decoding reports truncation
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  data.resize(got);
  return data;
}

template <typename GraphT>
Result<std::string> SaveCheckpointT(const GraphT& g, uint64_t epoch,
                                    const std::string& dir) {
  GEDLIB_FAILPOINT("checkpoint.write");
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Unavailable(ErrnoMessage("mkdir " + dir));
  }
  std::string data = EncodeCheckpoint(g, epoch);
  std::string final_path = dir + "/" + CheckpointFileName(epoch);
  std::string tmp_path = final_path + ".tmp";
  Status st = WriteFileDurably(tmp_path, data);
  if (!st.ok()) {
    ::unlink(tmp_path.c_str());
    return st;
  }
  {
    Status injected;
    GEDLIB_FAILPOINT_STATUS("checkpoint.rename", injected);
    if (!injected.ok()) {
      ::unlink(tmp_path.c_str());
      return injected;
    }
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    Status err = Status::Unavailable(ErrnoMessage("rename " + tmp_path));
    ::unlink(tmp_path.c_str());
    return err;
  }
  GEDLIB_RETURN_IF_ERROR(SyncDir(dir));
  return final_path;
}

}  // namespace

std::string CheckpointFileName(uint64_t epoch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "checkpoint-%012llu.ckpt",
                static_cast<unsigned long long>(epoch));
  return buf;
}

Result<std::string> SaveCheckpoint(const Graph& g, uint64_t epoch,
                                   const std::string& dir) {
  return SaveCheckpointT(g, epoch, dir);
}

Result<std::string> SaveCheckpoint(const FrozenGraph& g, uint64_t epoch,
                                   const std::string& dir) {
  return SaveCheckpointT(g, epoch, dir);
}

Result<Checkpoint> LoadCheckpoint(const std::string& path) {
  Result<std::string> file = ReadWholeFile(path);
  if (!file.ok()) return file.status();
  const std::string_view data = file.value();
  auto corrupt = [&](const std::string& msg) {
    return Status::DataLoss("checkpoint " + path + ": " + msg);
  };
  if (data.size() < sizeof(kCkptMagic) ||
      std::memcmp(data.data(), kCkptMagic, sizeof(kCkptMagic)) != 0) {
    return corrupt("bad magic header");
  }
  binio::Reader top(data.substr(sizeof(kCkptMagic)));
  uint32_t version = 0, section_count = 0;
  uint64_t epoch = 0;
  if (!top.GetU32(&version) || !top.GetU64(&epoch) ||
      !top.GetU32(&section_count)) {
    return corrupt("truncated header");
  }
  if (version != kCkptVersion) {
    return corrupt("unsupported version " + std::to_string(version));
  }

  std::string_view nodes, edges, attrs;
  bool have[4] = {false, false, false, false};
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t id = 0, crc = 0;
    uint64_t len = 0;
    if (!top.GetU32(&id) || !top.GetU64(&len) || !top.GetU32(&crc)) {
      return corrupt("truncated section header");
    }
    if (len > top.remaining()) {
      return corrupt("section " + std::to_string(id) +
                     " truncated: declares " + std::to_string(len) +
                     " bytes, " + std::to_string(top.remaining()) + " left");
    }
    std::string_view payload = data.substr(data.size() - top.remaining(), len);
    uint32_t actual = Crc32c(payload.data(), payload.size());
    if (actual != crc) {
      return corrupt("section " + std::to_string(id) +
                     " failed CRC32C (stored " + std::to_string(crc) +
                     ", computed " + std::to_string(actual) + ")");
    }
    if (!top.Skip(len)) return corrupt("section skip past end");
    if (id >= kSectionNodes && id <= kSectionAttrs) {
      if (have[id]) return corrupt("duplicate section " + std::to_string(id));
      have[id] = true;
      (id == kSectionNodes ? nodes : id == kSectionEdges ? edges : attrs) =
          payload;
    }
    // Unknown section ids (including 0) are skipped (forward compat).
  }
  if (!have[kSectionNodes] || !have[kSectionEdges] || !have[kSectionAttrs]) {
    return corrupt("missing section");
  }

  // One pass per section. Labels and attribute names are views into `data`;
  // each distinct one is interned once per load, not once per record.
  std::unordered_map<std::string_view, Symbol> symbols;
  auto intern = [&symbols](std::string_view name) {
    auto [it, inserted] = symbols.try_emplace(name, kWildcard);
    if (inserted) it->second = Sym(name);
    return it->second;
  };
  Checkpoint ckpt;
  ckpt.epoch = epoch;
  Graph& g = ckpt.graph;
  std::string_view name;
  {
    binio::Reader r(nodes);
    uint64_t n = 0;
    // A node record takes at least 4 bytes, which bounds the reservation.
    if (!r.GetU64(&n) || n > r.remaining() / 4) {
      return corrupt("nodes section truncated");
    }
    g.Reserve(n, 0);
    for (uint64_t v = 0; v < n; ++v) {
      if (!r.GetStrView(&name)) return corrupt("nodes section truncated");
      g.AddNode(intern(name));
    }
    if (!r.Done()) return corrupt("nodes section has trailing bytes");
  }
  {
    binio::Reader r(edges);
    uint64_t m = 0;
    // An edge record takes at least 12 bytes.
    if (!r.GetU64(&m) || m > r.remaining() / 12) {
      return corrupt("edges section truncated");
    }
    std::vector<EdgeTriple> triples(m);
    for (EdgeTriple& e : triples) {
      if (!r.GetU32(&e.src) || !r.GetU32(&e.dst) || !r.GetStrView(&name)) {
        return corrupt("edges section truncated");
      }
      if (e.src >= g.NumNodes() || e.dst >= g.NumNodes()) {
        return corrupt("edge endpoint out of range");
      }
      e.label = intern(name);
    }
    if (!r.Done()) return corrupt("edges section has trailing bytes");
    g.AddEdges(triples);  // a repeated triple collapses to one edge
  }
  {
    binio::Reader r(attrs);
    uint64_t k = 0;
    if (!r.GetU64(&k)) return corrupt("attrs section truncated");
    for (uint64_t i = 0; i < k; ++i) {
      uint32_t v = 0;
      Value value;
      if (!r.GetU32(&v) || !r.GetStrView(&name) || !r.GetValue(&value)) {
        return corrupt("attrs section truncated");
      }
      if (v >= g.NumNodes()) return corrupt("attr node out of range");
      g.SetAttr(v, intern(name), std::move(value));
    }
    if (!r.Done()) return corrupt("attrs section has trailing bytes");
  }
  return ckpt;
}

std::vector<CheckpointInfo> ListCheckpoints(const std::string& dir) {
  std::vector<CheckpointInfo> found;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return {};
  while (struct dirent* entry = ::readdir(d)) {
    std::string_view name = entry->d_name;
    if (name.size() < 17 || name.substr(0, 11) != "checkpoint-" ||
        name.substr(name.size() - 5) != ".ckpt") {
      continue;
    }
    std::string_view digits = name.substr(11, name.size() - 16);
    uint64_t epoch = 0;
    auto [p, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), epoch);
    if (ec != std::errc() || p != digits.data() + digits.size()) continue;
    found.push_back({epoch, std::string(name)});
  }
  ::closedir(d);
  std::sort(found.begin(), found.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.epoch < b.epoch;
            });
  return found;
}

Status RemoveObsoleteCheckpoints(const std::string& dir,
                                 uint64_t keep_epoch) {
  for (const CheckpointInfo& info : ListCheckpoints(dir)) {
    if (info.epoch >= keep_epoch) continue;
    std::string path = dir + "/" + info.name;
    if (::unlink(path.c_str()) != 0) {
      return Status::Unavailable(ErrnoMessage("unlink " + path));
    }
  }
  return Status::OK();
}

}  // namespace ged
