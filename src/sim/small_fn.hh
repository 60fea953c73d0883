/**
 * @file
 * Move-only `void()` callable with inline small-buffer storage.
 *
 * The simulation kernel's hot paths (tick events, memory-completion
 * callbacks) used to heap-allocate a std::function closure per event.
 * SmallFn stores any capture of up to 64 bytes inline — which covers
 * every steady-state capture shape in the simulator (`[this]`,
 * `[this, rd, gen]`, `[this, lineNum]`, the VMSU's `[this, req,
 * attempt]`) — and falls back to the heap only for oversized or
 * throwing-move captures, which no steady-state path may use.
 * DESIGN.md §11 states the hot-path rules that depend on this.
 */

#ifndef BVL_SIM_SMALL_FN_HH
#define BVL_SIM_SMALL_FN_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace bvl
{

class SmallFn
{
  public:
    /** Captures up to this many bytes are stored without allocating. */
    static constexpr std::size_t inlineBytes = 64;

    SmallFn() = default;
    SmallFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    SmallFn(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void *>(buf)) D(std::forward<F>(f));
            ops = &InlineOps<D>::table;
        } else {
            D *heap = new D(std::forward<F>(f));
            std::memcpy(buf, &heap, sizeof(heap));
            ops = &HeapOps<D>::table;
        }
    }

    SmallFn(SmallFn &&other) noexcept { moveFrom(other); }

    SmallFn &
    operator=(SmallFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFn &operator=(std::nullptr_t) { reset(); return *this; }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    ~SmallFn() { reset(); }

    /** True if a callable is held. */
    explicit operator bool() const { return ops != nullptr; }

    void operator()() { ops->invoke(buf); }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move the callable from src into dst, leaving src empty. */
        void (*relocate)(void *src, void *dst);
        void (*destroy)(void *);
    };

    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= inlineBytes &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    struct InlineOps
    {
        static void invoke(void *p) { (*static_cast<D *>(p))(); }
        static void
        relocate(void *src, void *dst)
        {
            D *from = static_cast<D *>(src);
            ::new (dst) D(std::move(*from));
            from->~D();
        }
        static void destroy(void *p) { static_cast<D *>(p)->~D(); }
        static constexpr Ops table{&invoke, &relocate, &destroy};
    };

    template <typename D>
    struct HeapOps
    {
        static D *
        held(void *p)
        {
            D *heap;
            std::memcpy(&heap, p, sizeof(heap));
            return heap;
        }
        static void invoke(void *p) { (*held(p))(); }
        static void
        relocate(void *src, void *dst)
        {
            std::memcpy(dst, src, sizeof(D *));
        }
        static void destroy(void *p) { delete held(p); }
        static constexpr Ops table{&invoke, &relocate, &destroy};
    };

    void
    moveFrom(SmallFn &other)
    {
        ops = other.ops;
        if (ops) {
            ops->relocate(other.buf, buf);
            other.ops = nullptr;
        }
    }

    void
    reset()
    {
        if (ops) {
            ops->destroy(buf);
            ops = nullptr;
        }
    }

    alignas(std::max_align_t) std::byte buf[inlineBytes];
    const Ops *ops = nullptr;
};

} // namespace bvl

#endif // BVL_SIM_SMALL_FN_HH
