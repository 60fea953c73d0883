/**
 * @file
 * Register identifiers for the bvl IR.
 *
 * A single flat 8-bit id space covers the three architectural register
 * files: integer x0-x31, floating-point f0-f31 and vector v0-v31.
 * x0 is hard-wired to zero as in RISC-V. v0 doubles as the mask
 * register for predicated vector instructions, matching RVV 1.0.
 */

#ifndef BVL_ISA_REG_HH
#define BVL_ISA_REG_HH

#include <cstdint>
#include <string>

namespace bvl
{

/** Flat register id (see file comment for the encoding). */
using RegId = std::uint8_t;

constexpr RegId regIdInvalid = 0xff;

constexpr RegId xregBase = 0;
constexpr RegId fregBase = 32;
constexpr RegId vregBase = 64;
constexpr unsigned numXRegs = 32;
constexpr unsigned numFRegs = 32;
constexpr unsigned numVRegs = 32;

/** Integer register xN. */
constexpr RegId xreg(unsigned n) { return xregBase + n; }
/** Floating-point register fN. */
constexpr RegId freg(unsigned n) { return fregBase + n; }
/** Vector register vN. */
constexpr RegId vreg(unsigned n) { return vregBase + n; }

constexpr bool isXReg(RegId r) { return r < fregBase; }
constexpr bool isFReg(RegId r) { return r >= fregBase && r < vregBase; }
constexpr bool isVReg(RegId r)
{ return r >= vregBase && r < vregBase + numVRegs; }

/** Index within the register's own file. */
constexpr unsigned regIndex(RegId r) { return r & 31; }

/** Human-readable register name, e.g. "x5", "f0", "v12". */
inline std::string
regName(RegId r)
{
    if (r == regIdInvalid)
        return "-";
    std::string name = isXReg(r) ? "x" : isFReg(r) ? "f" : "v";
    name += std::to_string(regIndex(r));
    return name;
}

} // namespace bvl

#endif // BVL_ISA_REG_HH
