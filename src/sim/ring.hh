/**
 * @file
 * Power-of-two ring-buffer FIFO for the per-cycle queues of the
 * simulated pipelines (DESIGN.md §11).
 *
 * std::deque allocates and frees a block every few hundred bytes of
 * FIFO traffic; a hardware queue has a fixed depth, so its model
 * should not. A Ring is sized once to the structure's depth and never
 * touches the heap again unless a push finds it full, in which case it
 * doubles (a warm-up cost, never a steady-state one). Elements are
 * move-assigned into and out of their slots, so a slot may hold a
 * callback (a cache's stalled requests) without ever being freed.
 */

#ifndef BVL_SIM_RING_HH
#define BVL_SIM_RING_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace bvl
{

template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity = 0)
    {
        // Checked here rather than at class scope so T may be a
        // nested struct of the class that holds the Ring.
        static_assert(std::is_default_constructible_v<T> &&
                          std::is_move_assignable_v<T>,
                      "Ring slots are assigned over, never destroyed");
        reserve(capacity);
    }

    /** Grow to hold at least @p n elements; contents are kept. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = buf.empty() ? 1 : buf.size();
        while (cap < n)
            cap *= 2;
        if (cap == buf.size())
            return;
        std::vector<T> grown(cap);
        for (std::uint64_t pos = head; pos != tail; ++pos)
            grown[pos & (cap - 1)] = std::move(buf[pos & mask]);
        buf = std::move(grown);
        mask = cap - 1;
    }

    bool empty() const { return head == tail; }
    std::size_t size() const { return static_cast<std::size_t>(tail - head); }

    T &front() { return buf[head & mask]; }

    /** The @p i-th element from the front. */
    T &operator[](std::size_t i) { return buf[(head + i) & mask]; }
    const T &operator[](std::size_t i) const
    { return buf[(head + i) & mask]; }

    void
    push_back(const T &v)
    {
        if (size() == buf.size())
            reserve(buf.size() * 2);
        buf[tail++ & mask] = v;
    }

    void
    push_back(T &&v)
    {
        if (size() == buf.size())
            reserve(buf.size() * 2);
        buf[tail++ & mask] = std::move(v);
    }

    void pop_front() { ++head; }

    /** Remove the @p i-th element, keeping the order of the rest.
     *  Shifts the @p i elements in front of it, so it is cheap near
     *  the head (the VMSU's scan window). */
    void
    erase(std::size_t i)
    {
        for (; i > 0; --i)
            (*this)[i] = std::move((*this)[i - 1]);
        ++head;
    }

    void clear() { head = tail; }

  private:
    std::vector<T> buf;
    std::uint64_t mask = 0;
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
};

} // namespace bvl

#endif // BVL_SIM_RING_HH
