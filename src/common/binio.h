// Little-endian binary encoding helpers shared by the durable formats
// (incr/wal.cc WAL records, graph/io.cc checkpoints).
//
// Writers append to a std::string buffer; the reader is a bounds-checked
// cursor whose getters return false instead of reading past the end, so a
// truncated or corrupted payload surfaces as a decode failure, never as UB.
// Byte order is explicit little-endian: files written on any host read back
// on any other.
//
// Values (common/value.h) are encoded as a one-byte kind tag plus the
// payload; doubles round-trip bit-exactly via their IEEE-754 image.

#ifndef GEDLIB_COMMON_BINIO_H_
#define GEDLIB_COMMON_BINIO_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/value.h"

namespace ged::binio {

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// u32 length prefix + raw bytes.
inline void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

inline void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kBool:
      PutU8(out, v.AsBool() ? 1 : 0);
      break;
    case Value::Kind::kInt:
      PutU64(out, static_cast<uint64_t>(v.AsInt()));
      break;
    case Value::Kind::kDouble:
      PutU64(out, std::bit_cast<uint64_t>(v.AsDouble()));
      break;
    case Value::Kind::kString:
      PutStr(out, v.AsString());
      break;
  }
}

/// Bounds-checked forward-only decoder over a byte buffer. Every getter
/// returns false (leaving the output untouched) once the buffer is
/// exhausted or malformed; callers turn that into a Status.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

  bool Skip(size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

  bool GetU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool GetU32(uint32_t* v) {
    if (remaining() < 4) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *v = r;
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (remaining() < 8) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *v = r;
    return true;
  }

  /// A u32-prefixed string as a view into the buffer (valid while it is).
  bool GetStrView(std::string_view* s) {
    uint32_t len = 0;
    if (!GetU32(&len) || remaining() < len) return false;
    *s = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  bool GetStr(std::string* s) {
    std::string_view view;
    if (!GetStrView(&view)) return false;
    s->assign(view);
    return true;
  }

  bool GetValue(Value* v) {
    uint8_t kind = 0;
    if (!GetU8(&kind)) return false;
    switch (static_cast<Value::Kind>(kind)) {
      case Value::Kind::kBool: {
        uint8_t b = 0;
        if (!GetU8(&b) || b > 1) return false;
        *v = Value(b == 1);
        return true;
      }
      case Value::Kind::kInt: {
        uint64_t i = 0;
        if (!GetU64(&i)) return false;
        *v = Value(static_cast<int64_t>(i));
        return true;
      }
      case Value::Kind::kDouble: {
        uint64_t bits = 0;
        if (!GetU64(&bits)) return false;
        *v = Value(std::bit_cast<double>(bits));
        return true;
      }
      case Value::Kind::kString: {
        std::string s;
        if (!GetStr(&s)) return false;
        *v = Value(std::move(s));
        return true;
      }
    }
    return false;  // unknown kind tag
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace ged::binio

#endif  // GEDLIB_COMMON_BINIO_H_
