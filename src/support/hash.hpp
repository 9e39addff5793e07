// Hashing primitives for the persistent store (src/incr): SHA-256 for
// content-addressed fingerprints (collision-resistant, stable across
// platforms and runs — unlike std::hash) and FNV-1a 64 for cheap file
// integrity checksums where an accidental-corruption check suffices.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace svlc {

/// Incremental SHA-256 (FIPS 180-4). No external dependencies.
class Sha256 {
public:
    Sha256();

    void update(const void* data, size_t len);
    void update(std::string_view s) { update(s.data(), s.size()); }

    /// Finalizes and returns the 32-byte digest. The object must not be
    /// updated afterwards.
    std::array<uint8_t, 32> digest();
    /// Finalizes and returns the digest as 64 lowercase hex characters.
    std::string hex_digest();

private:
    void compress(const uint8_t* block);

    uint32_t state_[8];
    uint64_t length_ = 0; // total bytes fed in
    uint8_t buffer_[64];
    size_t buffered_ = 0;
};

/// One-shot convenience wrapper.
std::string sha256_hex(std::string_view data);

/// FNV-1a 64-bit, seedable for chaining.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
uint64_t fnv1a64(std::string_view data, uint64_t seed = kFnvOffset);

} // namespace svlc
