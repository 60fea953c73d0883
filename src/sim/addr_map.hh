/**
 * @file
 * Open-addressing hash map keyed by an address or line/page number,
 * for the per-access tables of the memory model (DESIGN.md §11).
 *
 * std::unordered_map allocates a node per key; a table consulted on
 * every miss or page touch should not. AddrMap keeps its entries in
 * one power-of-two slot array with linear probing and backward-shift
 * deletion, so it only touches the heap when it doubles (a warm-up
 * cost, never a steady-state one). The value type's default (zero,
 * null) marks an empty slot: set() to it erases the key.
 */

#ifndef BVL_SIM_ADDR_MAP_HH
#define BVL_SIM_ADDR_MAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace bvl
{

template <typename V>
class AddrMap
{
  public:
    /** @param capacity initial slot count (a power of two). */
    explicit AddrMap(std::size_t capacity = 16) { rehash(capacity); }

    /** Value of @p key, or V{} if absent. */
    V
    get(Addr key) const
    {
        for (std::size_t i = home(key);; i = (i + 1) & mask) {
            if (slots[i].value == V{})
                return V{};
            if (slots[i].key == key)
                return slots[i].value;
        }
    }

    /** Map @p key to @p value; V{} erases it. */
    void
    set(Addr key, V value)
    {
        std::size_t i = home(key);
        for (; slots[i].value != V{}; i = (i + 1) & mask) {
            if (slots[i].key != key)
                continue;
            if (value != V{})
                slots[i].value = value;
            else
                eraseAt(i);
            return;
        }
        if (value == V{})
            return;
        if (2 * (count + 1) > slots.size()) {
            rehash(2 * slots.size());
            set(key, value);
            return;
        }
        slots[i] = Slot{key, value};
        ++count;
    }

    /** Number of keys held. */
    std::size_t size() const { return count; }

    /** Call @p fn(key, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots)
            if (s.value != V{})
                fn(s.key, s.value);
    }

    /** Drop every entry, keeping the slot array. */
    void
    clear()
    {
        slots.assign(slots.size(), Slot{});
        count = 0;
    }

  private:
    struct Slot
    {
        Addr key = 0;
        V value{};
    };

    std::size_t
    home(Addr key) const
    {
        // Fibonacci hashing: the top bits of key * 2^64/phi spread
        // consecutive line and page numbers across the table.
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift);
    }

    void
    eraseAt(std::size_t i)
    {
        // Pull later entries of the probe run back over the hole so
        // every remaining key stays reachable from its home slot.
        for (std::size_t j = (i + 1) & mask; slots[j].value != V{};
             j = (j + 1) & mask) {
            std::size_t h = home(slots[j].key);
            bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
            if (!stays) {
                slots[i] = slots[j];
                i = j;
            }
        }
        slots[i] = Slot{};
        --count;
    }

    void
    rehash(std::size_t n)
    {
        std::vector<Slot> old = std::move(slots);
        slots.assign(n, Slot{});
        mask = n - 1;
        shift = 64;
        for (std::size_t c = n; c > 1; c /= 2)
            --shift;
        count = 0;
        for (const Slot &s : old)
            if (s.value != V{})
                set(s.key, s.value);
    }

    std::vector<Slot> slots;
    std::size_t mask = 0;
    unsigned shift = 64;
    std::size_t count = 0;
};

} // namespace bvl

#endif // BVL_SIM_ADDR_MAP_HH
