/**
 * @file
 * Sparse byte-addressable backing store for functional execution.
 *
 * All cores and vector engines of one simulated system share a single
 * BackingStore: the timing models (caches, VMU) carry no data, only
 * tags and occupancy, so functional correctness is independent of
 * timing ("timing-directed" simulation, DESIGN.md §5).
 */

#ifndef BVL_MEM_BACKING_STORE_HH
#define BVL_MEM_BACKING_STORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/addr_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace bvl
{

class BackingStore
{
  public:
    static constexpr unsigned pageShift = 12;
    static constexpr Addr pageBytes = Addr(1) << pageShift;
    using Page = std::array<std::uint8_t, pageBytes>;

    BackingStore() = default;

    /** Deep copy: the copy owns its pages and starts with a cold page
     *  cache (the source's cache points into the source's pages). */
    BackingStore(const BackingStore &other)
    {
        other.pages.forEach([&](Addr num, const Page *page) {
            *allocPage(num) = *page;
        });
    }

    BackingStore &operator=(const BackingStore &) = delete;

    /** Read @p n bytes at @p addr into @p out. */
    void
    read(Addr addr, void *out, std::size_t n) const
    {
        // Fast path: the access stays inside a recently touched page.
        // Fast-forward executes whole vector loops against this store
        // element by element, so the hit rate is near 100% and the
        // hash lookup below is the dominant cost it avoids. A small
        // set (not one entry) keeps it high when fetch, a source
        // stream and a destination stream alternate across pages.
        Addr off = addr & (pageBytes - 1);
        if (off + n <= pageBytes) {
            if (std::uint8_t *data = cacheFind(addr >> pageShift)) {
                std::memcpy(out, data + off, n);
                return;
            }
        }
        readSlow(addr, out, n);
    }

    /** Write @p n bytes from @p src at @p addr. */
    void
    write(Addr addr, const void *src, std::size_t n)
    {
        Addr off = addr & (pageBytes - 1);
        if (off + n <= pageBytes) {
            if (std::uint8_t *data = cacheFind(addr >> pageShift)) {
                std::memcpy(data + off, src, n);
                return;
            }
        }
        writeSlow(addr, src, n);
    }

    /** Typed read of a trivially copyable value. */
    template <typename T>
    T
    readT(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        read(addr, &value, sizeof(T));
        return value;
    }

    /** Typed write of a trivially copyable value. */
    template <typename T>
    void
    writeT(Addr addr, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &value, sizeof(T));
    }

    /** Zero-extended integer load of @p size bytes (1/2/4/8). */
    std::uint64_t
    readInt(Addr addr, unsigned size) const
    {
        std::uint64_t v = 0;
        bvl_assert(size <= 8, "bad access size %u", size);
        read(addr, &v, size);
        return v;
    }

    /** Integer store of the low @p size bytes of @p value. */
    void
    writeInt(Addr addr, std::uint64_t value, unsigned size)
    {
        bvl_assert(size <= 8, "bad access size %u", size);
        write(addr, &value, size);
    }

    /** Number of allocated pages (for tests / memory accounting). */
    std::size_t allocatedPages() const { return pages.size(); }

    /** Every allocated page with its page number (addr >> pageShift),
     *  in page order: the memory image checkpoints serialize
     *  (DESIGN.md §15). */
    std::vector<std::pair<Addr, const Page *>>
    sortedPages() const
    {
        std::vector<std::pair<Addr, const Page *>> out;
        out.reserve(pages.size());
        pages.forEach([&](Addr num, Page *page) {
            out.emplace_back(num, page);
        });
        std::sort(out.begin(), out.end());
        return out;
    }

    /** Drop every page (checkpoint restore rewrites the full image). */
    void
    clear()
    {
        pages.clear();
        slabs.clear();
        slabUsed = pagesPerSlab;
        for (unsigned i = 0; i < cacheWays; ++i) {
            cachedPage[i] = ~Addr(0);
            cachedData[i] = nullptr;
        }
        cacheNext = 0;
    }

  private:
    std::uint8_t *
    cacheFind(Addr pageNum) const
    {
        for (unsigned i = 0; i < cacheWays; ++i)
            if (cachedPage[i] == pageNum)
                return cachedData[i];
        return nullptr;
    }

    void
    cacheInsert(Addr pageNum, std::uint8_t *data) const
    {
        cachedPage[cacheNext] = pageNum;
        cachedData[cacheNext] = data;
        cacheNext = (cacheNext + 1) % cacheWays;
    }

    void
    readSlow(Addr addr, void *out, std::size_t n) const
    {
        auto *dst = static_cast<std::uint8_t *>(out);
        while (n > 0) {
            Addr off = addr & (pageBytes - 1);
            std::size_t chunk = std::min<std::size_t>(n, pageBytes - off);
            Page *page = pages.get(addr >> pageShift);
            if (!page) {
                // Unallocated pages read as zero but are not cached:
                // a later write would allocate behind the cache's back.
                std::memset(dst, 0, chunk);
            } else {
                std::memcpy(dst, page->data() + off, chunk);
                cacheInsert(addr >> pageShift, page->data());
            }
            dst += chunk;
            addr += chunk;
            n -= chunk;
        }
    }

    void
    writeSlow(Addr addr, const void *src, std::size_t n)
    {
        auto *p = static_cast<const std::uint8_t *>(src);
        while (n > 0) {
            Addr off = addr & (pageBytes - 1);
            std::size_t chunk = std::min<std::size_t>(n, pageBytes - off);
            Page *page = pages.get(addr >> pageShift);
            if (!page)
                page = allocPage(addr >> pageShift);
            std::memcpy(page->data() + off, p, chunk);
            // Pages never move (slabs are not resized), so caching
            // one is safe until clear().
            cacheInsert(addr >> pageShift, page->data());
            p += chunk;
            addr += chunk;
            n -= chunk;
        }
    }

    /** A fresh all-zero page for page number @p num, carved out of
     *  the newest slab. */
    Page *
    allocPage(Addr num)
    {
        if (slabUsed == pagesPerSlab) {
            slabs.push_back(std::make_unique<Page[]>(pagesPerSlab));
            slabUsed = 0;
        }
        Page *page = &slabs.back()[slabUsed++];
        pages.set(num, page);
        return page;
    }

    /**
     * Pages come from 64 KiB slabs, indexed by page number in an
     * open-addressing table, so the first touch of a page costs a
     * heap allocation only once per slab (DESIGN.md §11).
     */
    static constexpr unsigned pagesPerSlab = 16;
    AddrMap<Page *> pages{1024};
    std::vector<std::unique_ptr<Page[]>> slabs;
    unsigned slabUsed = pagesPerSlab;
    /**
     * Small fully-scanned page cache for the element-granular
     * functional accesses (mutable: a read warms it), replaced
     * round-robin. Four ways cover the common fast-forward working
     * set — fetch line, one or two source streams, one destination
     * stream — where a single entry thrashed on every alternation.
     * Unallocated zero pages are never cached (a later write would
     * allocate behind the cache's back). A Soc is single-threaded, so
     * this needs no synchronization; sweeps build one Soc per job.
     */
    static constexpr unsigned cacheWays = 4;
    mutable Addr cachedPage[cacheWays] = {~Addr(0), ~Addr(0), ~Addr(0),
                                          ~Addr(0)};
    mutable std::uint8_t *cachedData[cacheWays] = {};
    mutable unsigned cacheNext = 0;
};

} // namespace bvl

#endif // BVL_MEM_BACKING_STORE_HH
