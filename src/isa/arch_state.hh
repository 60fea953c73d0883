/**
 * @file
 * Architectural state and the functional executor.
 *
 * One ArchState exists per hardware thread context. The functional
 * executor steps one instruction at a time against an ArchState and
 * the shared BackingStore, filling a caller-owned ExecTrace that
 * carries everything the timing models need (branch outcome, memory
 * addresses, vector length in effect). Timing models never re-execute
 * semantics; they only schedule the already-known effects.
 */

#ifndef BVL_ISA_ARCH_STATE_HH
#define BVL_ISA_ARCH_STATE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "isa/instr.hh"
#include "isa/program.hh"
#include "isa/reg.hh"
#include "mem/backing_store.hh"
#include "sim/types.hh"

namespace bvl
{

/** Maximum supported hardware vector length (the 1bDV's 2048 bits). */
constexpr unsigned maxVlenBits = 2048;
constexpr unsigned maxVlenBytes = maxVlenBits / 8;

/**
 * Everything the timing model needs to know about one executed instr.
 * Callers own it and hand the same one to stepOne() again and again
 * (DESIGN.md §11): every step writes every field, and elemAddrs keeps
 * its capacity. The one-byte fields sit together so that the handlers'
 * constant flag writes merge into few stores.
 */
struct ExecTrace
{
    const Instr *inst = nullptr;
    std::uint64_t pc = 0;        ///< index of the executed instruction
    std::uint64_t nextPc = 0;
    Addr addr = 0;               ///< scalar memory access address

    /** Per-active-element byte addresses of a vector memory access. */
    std::vector<Addr> elemAddrs;

    std::uint32_t vl = 0;        ///< vector length in effect
    std::uint8_t sew = 0;        ///< element width in bytes in effect
    std::uint8_t size = 0;       ///< memory access width in bytes

    bool isBranch = false;
    bool taken = false;
    bool isMem = false;          ///< memory access (scalar or vector)
    bool isStore = false;
    bool isVec = false;
    bool halted = false;

    bool operator==(const ExecTrace &) const = default;
};

/** Architectural register + vector state of one hardware thread. */
class ArchState
{
  public:
    /** @param vlen_bits hardware vector length of the owning system. */
    explicit ArchState(unsigned vlen_bits = 512)
    {
        setVlenBits(vlen_bits);
        reset();
    }

    void
    reset()
    {
        x.fill(0);
        f.fill(0);
        for (auto &r : v)
            r.fill(0);
        pc = 0;
        vl = 0;
        sew = 4;
        halted = false;
    }

    /** reset(), then write each program argument to its register. */
    void
    seed(const ProgArgs &args)
    {
        reset();
        for (const auto &[reg, value] : args) {
            if (isFReg(reg))
                setF(reg, value);
            else
                setX(reg, value);
        }
    }

    void
    setVlenBits(unsigned bits)
    {
        bvl_assert(bits > 0 && bits <= maxVlenBits && bits % 64 == 0,
                   "unsupported VLEN %u", bits);
        _vlenb = bits / 8;
    }

    /** Hardware vector length in bytes. */
    unsigned vlenb() const { return _vlenb; }
    /** Maximum vl for the given element width. */
    unsigned vlmax(unsigned ew) const { return _vlenb / ew; }

    // --- scalar registers ---------------------------------------------

    std::uint64_t
    getX(RegId r) const
    {
        if (r == regIdInvalid || regIndex(r) == 0)
            return 0;
        return x[regIndex(r)];
    }

    void
    setX(RegId r, std::uint64_t value)
    {
        if (regIndex(r) != 0)
            x[regIndex(r)] = value;
    }

    std::uint64_t getF(RegId r) const { return f[regIndex(r)]; }
    void setF(RegId r, std::uint64_t raw) { f[regIndex(r)] = raw; }

    /** Read rs as the right file based on its id. */
    std::uint64_t
    getScalar(RegId r) const
    {
        return isFReg(r) ? getF(r) : getX(r);
    }

    // --- vector registers ---------------------------------------------

    /** Zero-extended element @p i of vector register @p r. */
    std::uint64_t
    vecGet(RegId r, unsigned i, unsigned ew) const
    {
        std::uint64_t value = 0;
        const auto &reg = v[regIndex(r)];
        bvl_assert((i + 1) * ew <= maxVlenBytes, "element out of range");
        std::memcpy(&value, reg.data() + i * ew, ew);
        return value;
    }

    /** Raw bytes of a vector register. */
    const std::array<std::uint8_t, maxVlenBytes> &
    vecRaw(RegId r) const
    {
        return v[regIndex(r)];
    }

    // --- checkpoint serialization (DESIGN.md §15) ----------------------

    /** Bytes dumpState() appends: x, f, v, pc, vl, sew, halted. */
    static constexpr std::size_t dumpedBytes =
        numXRegs * 8 + numFRegs * 8 + numVRegs * maxVlenBytes + 8 + 4 +
        1 + 1;

    /** Append a fixed-layout little-endian snapshot of every
     *  architectural register to @p out. */
    void
    dumpState(std::string &out) const
    {
        auto put = [&](const void *p, std::size_t n) {
            out.append(static_cast<const char *>(p), n);
        };
        put(x.data(), numXRegs * 8);
        put(f.data(), numFRegs * 8);
        for (const auto &reg : v)
            put(reg.data(), maxVlenBytes);
        put(&pc, 8);
        put(&vl, 4);
        put(&sew, 1);
        std::uint8_t h = halted ? 1 : 0;
        put(&h, 1);
    }

    /** Inverse of dumpState(); @p len must be exactly dumpedBytes. */
    bool
    loadState(const char *data, std::size_t len)
    {
        if (len != dumpedBytes)
            return false;
        auto get = [&](void *p, std::size_t n) {
            std::memcpy(p, data, n);
            data += n;
        };
        get(x.data(), numXRegs * 8);
        get(f.data(), numFRegs * 8);
        for (auto &reg : v)
            get(reg.data(), maxVlenBytes);
        get(&pc, 8);
        get(&vl, 4);
        get(&sew, 1);
        std::uint8_t h = 0;
        get(&h, 1);
        halted = h != 0;
        return true;
    }

    // --- public architectural state ------------------------------------

    std::uint64_t pc = 0;
    std::uint32_t vl = 0;
    std::uint8_t sew = 4;
    bool halted = false;

  private:
    friend struct Exec;   // the decoded handlers (arch_state.cc)

    /** x0..x31, then the sink decoded writes to x0 land in: x0 itself
     *  is never written, so it reads zero without a test. */
    std::array<std::uint64_t, numXRegs + 1> x{};
    std::array<std::uint64_t, numFRegs> f{};
    std::array<std::array<std::uint8_t, maxVlenBytes>, numVRegs> v{};
    unsigned _vlenb = 64;
};

/**
 * Functionally execute the instruction at @p state.pc of @p prog,
 * updating @p state and @p mem, and describe it in @p out. Every field
 * of @p out is overwritten; its elemAddrs keeps its capacity, so a
 * reused trace steps without touching the heap. The instruction runs
 * through the handler its program decoded it to.
 */
inline void
stepOne(ArchState &state, const Program &prog, BackingStore &mem,
        ExecTrace &out)
{
    bvl_assert(state.pc < prog.size(), "pc %llu out of range in %s",
               static_cast<unsigned long long>(state.pc),
               prog.name().c_str());
    const DecodedInstr &d = prog.decoded()[state.pc];
    d.exec(state, d, mem, out);
}

/**
 * Run a program functionally to completion (no timing), up to
 * @p maxSteps dynamic instructions.
 * @return number of dynamic instructions executed.
 */
std::uint64_t runFunctional(ArchState &state, const Program &prog,
                            BackingStore &mem,
                            std::uint64_t maxSteps = 1ull << 32);

} // namespace bvl

#endif // BVL_ISA_ARCH_STATE_HH
