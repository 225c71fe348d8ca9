// CRC32C (Castagnoli, polynomial 0x1EDC6A41 reflected to 0x82F63B78): the
// checksum guarding WAL records (incr/wal.h) and checkpoint sections
// (graph/io.h). Chosen over plain CRC32 for its better burst-error
// detection and because it is the de-facto storage-format checksum
// (RocksDB, leveldb, ext4), so externally written files stay verifiable.
//
// On x86-64 CPUs with SSE4.2, Crc32c uses the `crc32` instruction (one
// function compiled for that target, chosen by a one-time CPUID check: no
// build flag, no knob). Elsewhere it falls back to the portable slice-by-8
// table implementation. Both give identical values, so files written on one
// host verify on any other.

#ifndef GEDLIB_COMMON_CRC32C_H_
#define GEDLIB_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace ged {

/// CRC32C of `data[0, n)`, seeded with `crc` (pass 0 for a fresh checksum;
/// pass a previous return value to extend it over concatenated buffers).
uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0);

/// The slice-by-8 table implementation (the fallback of Crc32c).
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t crc = 0);

/// True iff Crc32c runs on the SSE4.2 instruction on this CPU.
bool Crc32cHardware();

}  // namespace ged

#endif  // GEDLIB_COMMON_CRC32C_H_
