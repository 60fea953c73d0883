/**
 * @file
 * Gshare branch direction predictor with 2-bit saturating counters.
 * Targets are assumed BTB-resident (the timing model charges only
 * direction mispredictions); unconditional jumps always predict
 * correctly.
 */

#ifndef BVL_CPU_BPRED_HH
#define BVL_CPU_BPRED_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace bvl
{

class GsharePredictor
{
  public:
    explicit GsharePredictor(unsigned index_bits = 12)
        : indexBits(index_bits), table(1u << index_bits, 1)
    {}

    /** Predict the direction of the branch at @p pc. */
    bool
    predict(std::uint64_t pc) const
    {
        return table[index(pc)] >= 2;
    }

    /** Train with the resolved direction and update global history. */
    void
    update(std::uint64_t pc, bool taken)
    {
        auto &ctr = table[index(pc)];
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
        history = ((history << 1) | (taken ? 1 : 0)) &
                  ((1u << indexBits) - 1);
    }

    void
    reset()
    {
        std::fill(table.begin(), table.end(), 1);
        history = 0;
    }

    // --- checkpoint access (DESIGN.md §15) ---------------------------

    unsigned tableIndexBits() const { return indexBits; }
    const std::vector<std::uint8_t> &rawTable() const { return table; }
    std::uint32_t rawHistory() const { return history; }

    /** Restore counters + history saved from an identical geometry. */
    void
    restore(std::span<const std::uint8_t> t, std::uint32_t h)
    {
        if (t.size() == table.size()) {
            std::copy(t.begin(), t.end(), table.begin());
            history = h & ((1u << indexBits) - 1);
        }
    }

  private:
    unsigned
    index(std::uint64_t pc) const
    {
        return static_cast<unsigned>((pc ^ history) &
                                     ((1u << indexBits) - 1));
    }

    unsigned indexBits;
    std::vector<std::uint8_t> table;
    std::uint32_t history = 0;
};

} // namespace bvl

#endif // BVL_CPU_BPRED_HH
