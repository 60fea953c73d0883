/**
 * @file
 * SHA-256 digest (FIPS 180-4) for the sweep service and checkpoints.
 *
 * The digest keys content-addressed stores (job hash, farm prefix
 * hash) and guards payload integrity (result-cache entries,
 * checkpoint payloads, a run's initial memory image). The checkpoint
 * paths hash whole memory images, megabytes per sweep cell, so the
 * block compressor is on a sweep's hot path (DESIGN.md §14/§16).
 *
 * Two compressors produce the same digests: a portable one, written
 * from the standard, and one on the x86 SHA extensions. The process
 * picks the accelerated one once, at first use, when the CPU has the
 * extensions, and the portable one otherwise. update() compresses
 * whole 64-byte blocks straight from the caller's bytes; only a
 * partial block is staged in the object. The repo has no third-party
 * dependencies, so both are self-contained.
 */

#ifndef BVL_SWEEP_SERVICE_DIGEST_HH
#define BVL_SWEEP_SERVICE_DIGEST_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace bvl
{

class Sha256
{
  public:
    /** Fold @p blocks consecutive 64-byte blocks at @p data into the
     *  eight state words @p state. */
    using Compressor = void (*)(std::uint32_t *state,
                                const std::uint8_t *data,
                                std::size_t blocks);

    /** The portable compressor: the reference and the fallback. */
    static void portable(std::uint32_t *state, const std::uint8_t *data,
                         std::size_t blocks);
    /** The SHA-extension compressor, or null when this host (or build
     *  target) has none. */
    static Compressor accelerated();

    /** Hash with the process's compressor. */
    Sha256() : Sha256(chosen()) {}
    /** Hash with @p compress (tests compare the two). */
    explicit Sha256(Compressor compress) : compress(compress) { reset(); }

    void reset();
    void update(const void *data, std::size_t len);

    /** Finalize and return the 64-char lowercase hex digest. */
    std::string hex();

  private:
    /** accelerated() when available, else portable; decided once. */
    static Compressor chosen();

    Compressor compress;
    std::array<std::uint32_t, 8> h;
    std::uint8_t buf[64];
    std::size_t bufLen = 0;
    std::uint64_t totalBits = 0;
};

/** One-shot digest of a byte string. */
std::string sha256Hex(std::string_view data);

} // namespace bvl

#endif // BVL_SWEEP_SERVICE_DIGEST_HH
