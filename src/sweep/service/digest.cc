#include "sweep/service/digest.hh"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define BVL_SHA_X86 1
#include <immintrin.h>
#endif

namespace bvl
{

namespace
{

alignas(16) constexpr std::uint32_t K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline std::uint32_t
rotr(std::uint32_t x, unsigned n)
{
    return (x >> n) | (x << (32 - n));
}

void
compressBlock(std::uint32_t *h, const std::uint8_t *block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (std::uint32_t(block[i * 4]) << 24) |
               (std::uint32_t(block[i * 4 + 1]) << 16) |
               (std::uint32_t(block[i * 4 + 2]) << 8) |
               std::uint32_t(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                           (w[i - 15] >> 3);
        std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                           (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
        std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        std::uint32_t ch = (e & f) ^ (~e & g);
        std::uint32_t t1 = hh + s1 + ch + K[i] + w[i];
        std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        std::uint32_t t2 = s0 + maj;
        hh = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += hh;
}

#ifdef BVL_SHA_X86

/**
 * The x86 SHA extensions' compressor. The state lives in two
 * registers as (A,B,E,F) and (C,D,G,H); each sha256rnds2 does two
 * rounds, and sha256msg1/msg2 extend the message schedule four words
 * at a time: W[i..i+3] from W[i-16..i-1] held in four registers.
 */
__attribute__((target("sha,sse4.1"))) void
compressShaNi(std::uint32_t *h, const std::uint8_t *data,
              std::size_t blocks)
{
    // Big-endian message words within each 32-bit lane.
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);

    __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i *>(h));
    __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(h + 4));
    __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; blocks > 0; --blocks, data += 64) {
        const __m128i abefIn = abef, cdghIn = cdgh;
        __m128i w[4];
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i) {
            __m128i &wi = w[i & 3];
            if (i < 4) {
                wi = _mm_shuffle_epi8(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(data + 16 * i)),
                    bswap);
            } else {
                const __m128i prev = w[(i - 1) & 3];
                wi = _mm_sha256msg2_epu32(
                    _mm_add_epi32(
                        _mm_sha256msg1_epu32(wi, w[(i - 3) & 3]),
                        _mm_alignr_epi8(prev, w[(i - 2) & 3], 4)),
                    prev);
            }
            __m128i wk = _mm_add_epi32(
                wi, _mm_load_si128(
                        reinterpret_cast<const __m128i *>(K + 4 * i)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh,
                                         _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abefIn);
        cdgh = _mm_add_epi32(cdgh, cdghIn);
    }

    // Back to (A,B,C,D) and (E,F,G,H) order.
    __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(h),
                     _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(h + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

#endif // BVL_SHA_X86

} // namespace

void
Sha256::portable(std::uint32_t *state, const std::uint8_t *data,
                 std::size_t blocks)
{
    for (; blocks > 0; --blocks, data += 64)
        compressBlock(state, data);
}

Sha256::Compressor
Sha256::accelerated()
{
#ifdef BVL_SHA_X86
    // Safe even from a static initializer that runs before libgcc's.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"))
        return compressShaNi;
#endif
    return nullptr;
}

Sha256::Compressor
Sha256::chosen()
{
    static const Compressor best =
        accelerated() ? accelerated() : &portable;
    return best;
}

void
Sha256::reset()
{
    h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
         0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    bufLen = 0;
    totalBits = 0;
}

void
Sha256::update(const void *data, std::size_t len)
{
    if (len == 0)
        return;
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    totalBits += std::uint64_t(len) * 8;
    if (bufLen > 0) {
        std::size_t take = std::min(len, sizeof(buf) - bufLen);
        std::memcpy(buf + bufLen, p, take);
        bufLen += take;
        p += take;
        len -= take;
        if (bufLen < sizeof(buf))
            return;
        compress(h.data(), buf, 1);
        bufLen = 0;
    }
    // Whole blocks straight from the caller's bytes.
    std::size_t blocks = len / 64;
    if (blocks > 0)
        compress(h.data(), p, blocks);
    bufLen = len % 64;
    std::memcpy(buf, p + blocks * 64, bufLen);
}

std::string
Sha256::hex()
{
    // Padding: 0x80, zeros, 64-bit big-endian bit length.
    buf[bufLen++] = 0x80;
    if (bufLen > 56) {
        std::memset(buf + bufLen, 0, sizeof(buf) - bufLen);
        compress(h.data(), buf, 1);
        bufLen = 0;
    }
    std::memset(buf + bufLen, 0, 56 - bufLen);
    for (int i = 0; i < 8; ++i)
        buf[56 + i] = std::uint8_t(totalBits >> (56 - i * 8));
    compress(h.data(), buf, 1);
    bufLen = 0;

    static const char *digits = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint32_t word : h) {
        for (int shift = 28; shift >= 0; shift -= 4)
            out += digits[(word >> shift) & 0xf];
    }
    return out;
}

std::string
sha256Hex(std::string_view data)
{
    Sha256 d;
    d.update(data.data(), data.size());
    return d.hex();
}

} // namespace bvl
