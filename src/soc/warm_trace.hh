/**
 * @file
 * Compact line-access stream recorded during fast-forward (DESIGN.md
 * §16). The stream is the design-independent *recipe* for warm
 * microarchitectural state: replaying it through any SoC's
 * MemSystem::warmFetch/warmData/warmL2 rederives that SoC's cache
 * tag/LRU arrays and L2 directory exactly as a live fast-forward
 * would — so one recorded prefix serves every cache geometry.
 *
 * Encoding, one record per warm call, in call order:
 *
 *   tag byte:  bits 0-1 = kind (0 fetch, 1 data, 2 l2)
 *              bit  2   = isStore
 *   varint:    zigzag(lineNum - previous record's lineNum), LEB128
 *
 * Line numbers are delta-encoded against the previous record of *any*
 * kind; fast-forward touches memory with high spatial locality, so
 * most deltas fit one byte (~2 bytes/record overall, vs 9+ raw).
 */

#ifndef BVL_SOC_WARM_TRACE_HH
#define BVL_SOC_WARM_TRACE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hh"

namespace bvl
{

/** One decoded warm call. */
struct WarmRecord
{
    enum Kind : std::uint8_t { fetch = 0, data = 1, l2 = 2 };

    std::uint8_t kind = fetch;
    bool isStore = false;
    Addr lineNum = 0;       ///< address >> lineShift
};

/** Append-only recorder; bytes() goes verbatim into the checkpoint. */
class WarmTrace
{
  public:
    void
    add(WarmRecord::Kind kind, Addr lineNum, bool isStore)
    {
        enc.push_back(char(std::uint8_t(kind) | (isStore ? 0x4 : 0)));
        // Zigzag so backward strides stay short, then LEB128.
        std::int64_t delta = std::int64_t(lineNum) - std::int64_t(prev);
        std::uint64_t z = (std::uint64_t(delta) << 1) ^
                          std::uint64_t(delta >> 63);
        do {
            std::uint8_t b = z & 0x7f;
            z >>= 7;
            enc.push_back(char(b | (z ? 0x80 : 0)));
        } while (z);
        prev = lineNum;
        ++count;
    }

    const std::string &bytes() const { return enc; }
    std::uint64_t records() const { return count; }

  private:
    std::string enc;
    std::uint64_t count = 0;
    Addr prev = 0;
};

/**
 * Decode @p records records out of @p bytes into @p out. Returns
 * false — leaving @p out unspecified — on any malformation: truncated
 * varint, unknown kind, reserved tag bits, trailing bytes, or a count
 * mismatch. Callers decode-then-apply, so a corrupt stream is caught
 * before any warm call is issued.
 */
inline bool
decodeWarmTrace(std::string_view bytes, std::uint64_t records,
                std::vector<WarmRecord> &out)
{
    out.clear();
    out.reserve(records);
    const auto *p = reinterpret_cast<const std::uint8_t *>(bytes.data());
    const auto *end = p + bytes.size();
    Addr prev = 0;
    for (std::uint64_t i = 0; i < records; ++i) {
        if (p >= end)
            return false;
        std::uint8_t tag = *p++;
        if (tag & ~0x7u || (tag & 0x3) > WarmRecord::l2)
            return false;
        std::uint64_t z = 0;
        unsigned shift = 0;
        for (;;) {
            if (p >= end || shift >= 64)
                return false;
            std::uint8_t b = *p++;
            z |= std::uint64_t(b & 0x7f) << shift;
            if (!(b & 0x80))
                break;
            shift += 7;
        }
        std::int64_t delta = std::int64_t(z >> 1) ^
                             -std::int64_t(z & 1);
        WarmRecord r;
        r.kind = tag & 0x3;
        r.isStore = (tag & 0x4) != 0;
        r.lineNum = Addr(std::int64_t(prev) + delta);
        prev = r.lineNum;
        out.push_back(r);
    }
    return p == end;
}

} // namespace bvl

#endif // BVL_SOC_WARM_TRACE_HH
