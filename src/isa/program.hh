/**
 * @file
 * Program container and a label-resolving assembler.
 *
 * Workload builders construct programs through the Asm fluent
 * interface; forward label references are patched when the program is
 * finished. Programs are immutable after finish() and shared between
 * all cores that execute them (e.g. every work-stealing task of a
 * parallel_for runs the same Program with different argument
 * registers).
 */

#ifndef BVL_ISA_PROGRAM_HH
#define BVL_ISA_PROGRAM_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/instr.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace bvl
{

class ArchState;
class BackingStore;
struct ExecTrace;
struct DecodedInstr;

/** Executes one decoded instruction (isa/arch_state.cc). */
using ExecFn = void (*)(ArchState &, const DecodedInstr &, BackingStore &,
                        ExecTrace &);

/**
 * An Instr resolved once, when its program is finished, to the handler
 * specialised on its op, operand form, masking and (for memory
 * accesses) element width, with its operands turned into register-file
 * indices (DESIGN.md §11). An integer source that names no register
 * reads x0; a write to x0 lands in a sink slot past x31.
 */
struct DecodedInstr
{
    ExecFn exec = nullptr;
    const Instr *inst = nullptr;
    std::int64_t imm = 0;
    std::int32_t target = -1;
    std::uint8_t rd = 0, rs1 = 0, rs2 = 0, rs3 = 0;
    VSrc2 vsrc = VSrc2::none;
    bool isVec = false;        ///< cached OpTraits::isVector
};

/** An immutable sequence of instructions with a name and entry point. */
class Program
{
  public:
    explicit Program(std::string name) : _name(std::move(name)) {}
    // The decoded form points into code.
    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;

    const std::string &name() const { return _name; }
    std::size_t size() const { return code.size(); }
    const Instr &at(std::size_t pc) const
    {
        bvl_assert(pc < code.size(), "pc %zu out of range in %s",
                   pc, _name.c_str());
        return code[pc];
    }

    /** The decoded instructions, one per Instr, built by finish(). */
    const DecodedInstr *decoded() const { return _decoded.data(); }

    /**
     * Base address of this program's instruction storage in the
     * simulated address space; used by front ends to generate L1I
     * traffic. Assigned by the system when the program is loaded.
     */
    Addr textBase() const { return _textBase; }
    void setTextBase(Addr base) { _textBase = base; }

    /** Address of the instruction at @p pc. */
    Addr instAddr(std::size_t pc) const
    { return _textBase + pc * instBytes; }

    /** Disassembly of the whole program. */
    std::string toString() const;

  private:
    friend class Asm;

    std::string _name;
    std::vector<Instr> code;
    std::vector<DecodedInstr> _decoded;
    Addr _textBase = 0;
};

/** Decode every instruction of @p code (isa/arch_state.cc). */
std::vector<DecodedInstr> decodeProgram(const std::vector<Instr> &code);

using ProgramPtr = std::shared_ptr<Program>;

/** Argument registers a program starts with (e.g. range bounds). */
using ProgArgs = std::vector<std::pair<RegId, std::uint64_t>>;

/** Fluent assembler for building a Program. */
class Asm
{
  public:
    explicit Asm(std::string name)
        : prog(std::make_shared<Program>(std::move(name)))
    {}

    /** Bind a label to the next emitted instruction. */
    Asm &
    label(const std::string &l)
    {
        bvl_assert(!labels.count(l), "duplicate label '%s'", l.c_str());
        labels[l] = static_cast<std::int32_t>(prog->code.size());
        return *this;
    }

    /** Emit a raw instruction. */
    Asm &
    emit(const Instr &inst)
    {
        bvl_assert(!finished, "emit into finished program %s",
                   prog->name().c_str());
        prog->code.push_back(inst);
        return *this;
    }

    // --- scalar convenience emitters -------------------------------

    Asm &nop() { return op0(Op::nop); }
    Asm &halt() { return op0(Op::halt); }

    /** rd = 64-bit immediate. */
    Asm &
    li(RegId rd, std::int64_t value)
    {
        Instr i;
        i.op = Op::li;
        i.rd = rd;
        i.imm = value;
        return emit(i);
    }

    /** rd = rs1 (integer move). */
    Asm &mv(RegId rd, RegId rs1) { return rri(Op::addi, rd, rs1, 0); }

    Asm &add(RegId rd, RegId a, RegId b) { return rrr(Op::add, rd, a, b); }
    Asm &sub(RegId rd, RegId a, RegId b) { return rrr(Op::sub, rd, a, b); }
    Asm &and_(RegId rd, RegId a, RegId b) { return rrr(Op::and_, rd, a, b); }
    Asm &or_(RegId rd, RegId a, RegId b) { return rrr(Op::or_, rd, a, b); }
    Asm &xor_(RegId rd, RegId a, RegId b) { return rrr(Op::xor_, rd, a, b); }
    Asm &sll(RegId rd, RegId a, RegId b) { return rrr(Op::sll, rd, a, b); }
    Asm &srl(RegId rd, RegId a, RegId b) { return rrr(Op::srl, rd, a, b); }
    Asm &slt(RegId rd, RegId a, RegId b) { return rrr(Op::slt, rd, a, b); }
    Asm &sltu(RegId rd, RegId a, RegId b) { return rrr(Op::sltu, rd, a, b); }
    Asm &mul(RegId rd, RegId a, RegId b) { return rrr(Op::mul, rd, a, b); }
    Asm &div_(RegId rd, RegId a, RegId b) { return rrr(Op::div_, rd, a, b); }
    Asm &rem(RegId rd, RegId a, RegId b) { return rrr(Op::rem, rd, a, b); }
    Asm &min_(RegId rd, RegId a, RegId b) { return rrr(Op::min_, rd, a, b); }
    Asm &max_(RegId rd, RegId a, RegId b) { return rrr(Op::max_, rd, a, b); }

    Asm &addi(RegId rd, RegId a, std::int64_t imm)
    { return rri(Op::addi, rd, a, imm); }
    Asm &andi(RegId rd, RegId a, std::int64_t imm)
    { return rri(Op::andi, rd, a, imm); }
    Asm &ori(RegId rd, RegId a, std::int64_t imm)
    { return rri(Op::ori, rd, a, imm); }
    Asm &xori(RegId rd, RegId a, std::int64_t imm)
    { return rri(Op::xori, rd, a, imm); }
    Asm &slli(RegId rd, RegId a, std::int64_t imm)
    { return rri(Op::slli, rd, a, imm); }
    Asm &srli(RegId rd, RegId a, std::int64_t imm)
    { return rri(Op::srli, rd, a, imm); }
    Asm &srai(RegId rd, RegId a, std::int64_t imm)
    { return rri(Op::srai, rd, a, imm); }
    Asm &slti(RegId rd, RegId a, std::int64_t imm)
    { return rri(Op::slti, rd, a, imm); }

    // --- scalar FP (width = 4 or 8 bytes) ---------------------------

    Asm &fadd(RegId rd, RegId a, RegId b, unsigned w = 4)
    { return frrr(Op::fadd, rd, a, b, w); }
    Asm &fsub(RegId rd, RegId a, RegId b, unsigned w = 4)
    { return frrr(Op::fsub, rd, a, b, w); }
    Asm &fmul(RegId rd, RegId a, RegId b, unsigned w = 4)
    { return frrr(Op::fmul, rd, a, b, w); }
    Asm &fdiv(RegId rd, RegId a, RegId b, unsigned w = 4)
    { return frrr(Op::fdiv, rd, a, b, w); }
    Asm &fmin(RegId rd, RegId a, RegId b, unsigned w = 4)
    { return frrr(Op::fmin, rd, a, b, w); }
    Asm &fmax(RegId rd, RegId a, RegId b, unsigned w = 4)
    { return frrr(Op::fmax, rd, a, b, w); }
    Asm &fsqrt(RegId rd, RegId a, unsigned w = 4)
    { return frrr(Op::fsqrt, rd, a, regIdInvalid, w); }
    Asm &fneg(RegId rd, RegId a, unsigned w = 4)
    { return frrr(Op::fneg, rd, a, regIdInvalid, w); }
    Asm &fabs_(RegId rd, RegId a, unsigned w = 4)
    { return frrr(Op::fabs_, rd, a, regIdInvalid, w); }

    /** rd = a * b + c */
    Asm &
    fmadd(RegId rd, RegId a, RegId b, RegId c, unsigned w = 4)
    {
        Instr i;
        i.op = Op::fmadd;
        i.rd = rd;
        i.rs1 = a;
        i.rs2 = b;
        i.rs3 = c;
        i.ew = static_cast<std::uint8_t>(w);
        return emit(i);
    }

    Asm &fcvt_f_x(RegId rd, RegId a, unsigned w = 4)
    { return frrr(Op::fcvt_f_x, rd, a, regIdInvalid, w); }
    Asm &fcvt_x_f(RegId rd, RegId a, unsigned w = 4)
    { return frrr(Op::fcvt_x_f, rd, a, regIdInvalid, w); }
    Asm &fmv_f_x(RegId rd, RegId a)
    { return frrr(Op::fmv_f_x, rd, a, regIdInvalid, 8); }
    Asm &fmv_x_f(RegId rd, RegId a)
    { return frrr(Op::fmv_x_f, rd, a, regIdInvalid, 8); }
    Asm &feq(RegId rd, RegId a, RegId b, unsigned w = 4)
    { return frrr(Op::feq, rd, a, b, w); }
    Asm &flt(RegId rd, RegId a, RegId b, unsigned w = 4)
    { return frrr(Op::flt, rd, a, b, w); }
    Asm &fle(RegId rd, RegId a, RegId b, unsigned w = 4)
    { return frrr(Op::fle, rd, a, b, w); }

    // --- scalar memory ----------------------------------------------

    /** Generic load: rd = mem[base + imm], @p w bytes. */
    Asm &
    load(RegId rd, RegId base, std::int64_t imm, unsigned w,
         bool sign = true)
    {
        Instr i;
        i.op = Op::load;
        i.rd = rd;
        i.rs1 = base;
        i.imm = imm;
        i.ew = static_cast<std::uint8_t>(w);
        i.sign = sign;
        return emit(i);
    }

    /** Generic store: mem[base + imm] = src, @p w bytes. */
    Asm &
    store(RegId src, RegId base, std::int64_t imm, unsigned w)
    {
        Instr i;
        i.op = Op::store;
        i.rs1 = base;
        i.rs2 = src;
        i.imm = imm;
        i.ew = static_cast<std::uint8_t>(w);
        return emit(i);
    }

    Asm &lw(RegId rd, RegId base, std::int64_t imm = 0)
    { return load(rd, base, imm, 4); }
    Asm &ld(RegId rd, RegId base, std::int64_t imm = 0)
    { return load(rd, base, imm, 8); }
    Asm &flw(RegId rd, RegId base, std::int64_t imm = 0)
    { return load(rd, base, imm, 4, false); }
    Asm &fld(RegId rd, RegId base, std::int64_t imm = 0)
    { return load(rd, base, imm, 8, false); }
    Asm &sw(RegId src, RegId base, std::int64_t imm = 0)
    { return store(src, base, imm, 4); }
    Asm &sd(RegId src, RegId base, std::int64_t imm = 0)
    { return store(src, base, imm, 8); }
    Asm &fsw(RegId src, RegId base, std::int64_t imm = 0)
    { return store(src, base, imm, 4); }
    Asm &fsd(RegId src, RegId base, std::int64_t imm = 0)
    { return store(src, base, imm, 8); }

    // --- control flow ------------------------------------------------

    Asm &beq(RegId a, RegId b, const std::string &l)
    { return branch(Op::beq, a, b, l); }
    Asm &bne(RegId a, RegId b, const std::string &l)
    { return branch(Op::bne, a, b, l); }
    Asm &blt(RegId a, RegId b, const std::string &l)
    { return branch(Op::blt, a, b, l); }
    Asm &bge(RegId a, RegId b, const std::string &l)
    { return branch(Op::bge, a, b, l); }
    Asm &bltu(RegId a, RegId b, const std::string &l)
    { return branch(Op::bltu, a, b, l); }
    Asm &bgeu(RegId a, RegId b, const std::string &l)
    { return branch(Op::bgeu, a, b, l); }
    Asm &j(const std::string &l)
    { return branch(Op::jump, regIdInvalid, regIdInvalid, l); }

    // --- vector -------------------------------------------------------

    /** rd = vl = min(avl in rs1, VLMAX for sew). */
    Asm &
    vsetvli(RegId rd, RegId avl, unsigned sew_bytes)
    {
        Instr i;
        i.op = Op::vsetvli;
        i.rd = rd;
        i.rs1 = avl;
        i.ew = static_cast<std::uint8_t>(sew_bytes);
        return emit(i);
    }

    /** Generic vector op, .vv form. */
    Asm &
    vv(Op op, RegId vd, RegId vs1, RegId vs2 = regIdInvalid,
       bool masked = false)
    {
        Instr i;
        i.op = op;
        i.rd = vd;
        i.rs1 = vs1;
        i.rs2 = vs2;
        i.vsrc = VSrc2::vv;
        i.masked = masked;
        return emit(i);
    }

    /** Generic vector op, .vx form (scalar x operand in rs2). */
    Asm &
    vx(Op op, RegId vd, RegId vs1, RegId xs2, bool masked = false)
    {
        Instr i;
        i.op = op;
        i.rd = vd;
        i.rs1 = vs1;
        i.rs2 = xs2;
        i.vsrc = VSrc2::vx;
        i.masked = masked;
        return emit(i);
    }

    /** Generic vector op, .vf form (scalar f operand in rs2). */
    Asm &
    vf(Op op, RegId vd, RegId vs1, RegId fs2, bool masked = false)
    {
        Instr i;
        i.op = op;
        i.rd = vd;
        i.rs1 = vs1;
        i.rs2 = fs2;
        i.vsrc = VSrc2::vf;
        i.masked = masked;
        return emit(i);
    }

    /** Generic vector op, .vi form (immediate operand). */
    Asm &
    vi(Op op, RegId vd, RegId vs1, std::int64_t imm, bool masked = false)
    {
        Instr i;
        i.op = op;
        i.rd = vd;
        i.rs1 = vs1;
        i.imm = imm;
        i.vsrc = VSrc2::vi;
        i.masked = masked;
        return emit(i);
    }

    /** Widen: vd[i] (2*srcEw) = zero-extend(vs[i] (srcEw)). */
    Asm &
    vzext2(RegId vd, RegId vs, unsigned srcEw, bool masked = false)
    {
        Instr i;
        i.op = Op::vzext2;
        i.rd = vd;
        i.rs1 = vs;
        i.ew = static_cast<std::uint8_t>(srcEw);
        i.masked = masked;
        return emit(i);
    }

    /** Widen: vd[i] (2*srcEw) = sign-extend(vs[i] (srcEw)). */
    Asm &
    vsext2(RegId vd, RegId vs, unsigned srcEw, bool masked = false)
    {
        Instr i;
        i.op = Op::vsext2;
        i.rd = vd;
        i.rs1 = vs;
        i.ew = static_cast<std::uint8_t>(srcEw);
        i.masked = masked;
        return emit(i);
    }

    /**
     * Narrow with saturation: vd[i] (dstEw) = sat(vs[i] (2*dstEw) >>
     * shamt). @p sign selects signed (vnclip) vs unsigned (vnclipu)
     * saturation bounds.
     */
    Asm &
    vnclip2(RegId vd, RegId vs, unsigned shamt, unsigned dstEw,
            bool sign = true, bool masked = false)
    {
        Instr i;
        i.op = Op::vnclip2;
        i.rd = vd;
        i.rs1 = vs;
        i.imm = static_cast<std::int64_t>(shamt);
        i.ew = static_cast<std::uint8_t>(dstEw);
        i.sign = sign;
        i.masked = masked;
        return emit(i);
    }

    /** vd[i] = v0[i] ? xs : vfalse[i] (merge with scalar true side). */
    Asm &
    vmerge_vx(RegId vd, RegId xs, RegId vfalse)
    {
        Instr i;
        i.op = Op::vmerge;
        i.rd = vd;
        i.rs1 = xs;
        i.rs2 = vfalse;
        i.vsrc = VSrc2::vx;
        return emit(i);
    }

    /** Splat scalar x register into vd. */
    Asm &vmv_vx(RegId vd, RegId xs)
    { return vx(Op::vmv, vd, regIdInvalid, xs); }
    /** Splat scalar f register into vd. */
    Asm &vmv_vf(RegId vd, RegId fs)
    { return vf(Op::vmv, vd, regIdInvalid, fs); }
    /** Vector-vector move. */
    Asm &vmv_vv(RegId vd, RegId vs)
    { return vv(Op::vmv, vd, vs, regIdInvalid); }
    /** vd[i] = i. */
    Asm &vid(RegId vd)
    { return vv(Op::vid, vd, regIdInvalid, regIdInvalid); }

    /** Unit-stride vector load, element width @p w bytes. */
    Asm &
    vle(RegId vd, RegId base, unsigned w, bool masked = false)
    {
        Instr i;
        i.op = Op::vle;
        i.rd = vd;
        i.rs1 = base;
        i.ew = static_cast<std::uint8_t>(w);
        i.masked = masked;
        return emit(i);
    }

    Asm &
    vse(RegId vs, RegId base, unsigned w, bool masked = false)
    {
        Instr i;
        i.op = Op::vse;
        i.rs1 = base;
        i.rs2 = vs;
        i.ew = static_cast<std::uint8_t>(w);
        i.masked = masked;
        return emit(i);
    }

    /** Constant-stride load: stride (bytes) in x register @p stride. */
    Asm &
    vlse(RegId vd, RegId base, RegId stride, unsigned w,
         bool masked = false)
    {
        Instr i;
        i.op = Op::vlse;
        i.rd = vd;
        i.rs1 = base;
        i.rs2 = stride;
        i.ew = static_cast<std::uint8_t>(w);
        i.masked = masked;
        return emit(i);
    }

    Asm &
    vsse(RegId vs, RegId base, RegId stride, unsigned w,
         bool masked = false)
    {
        Instr i;
        i.op = Op::vsse;
        i.rs1 = base;
        i.rs2 = stride;
        i.rs3 = vs;
        i.ew = static_cast<std::uint8_t>(w);
        i.masked = masked;
        return emit(i);
    }

    /** Indexed load: byte offsets in vector register @p vidx. */
    Asm &
    vluxei(RegId vd, RegId base, RegId vidx, unsigned w,
           bool masked = false)
    {
        Instr i;
        i.op = Op::vluxei;
        i.rd = vd;
        i.rs1 = base;
        i.rs2 = vidx;
        i.ew = static_cast<std::uint8_t>(w);
        i.masked = masked;
        return emit(i);
    }

    Asm &
    vsuxei(RegId vs, RegId base, RegId vidx, unsigned w,
           bool masked = false)
    {
        Instr i;
        i.op = Op::vsuxei;
        i.rs1 = base;
        i.rs2 = vidx;
        i.rs3 = vs;
        i.ew = static_cast<std::uint8_t>(w);
        i.masked = masked;
        return emit(i);
    }

    Asm &vmfence() { return op0(Op::vmfence); }

    /** vd[0] = scalar x register. */
    Asm &vmv_s_x(RegId vd, RegId xs) { return rds1(Op::vmv_s_x, vd, xs); }
    /** xd = element 0 of vs. */
    Asm &vmv_x_s(RegId xd, RegId vs) { return rds1(Op::vmv_x_s, xd, vs); }
    /** vd[0] = scalar f register. */
    Asm &vfmv_s_f(RegId vd, RegId fs)
    { return rds1(Op::vfmv_s_f, vd, fs); }
    /** fd = element 0 of vs. */
    Asm &vfmv_f_s(RegId fd, RegId vs)
    { return rds1(Op::vfmv_f_s, fd, vs); }
    /** xd = popcount of mask register vs (first vl bits). */
    Asm &vpopc(RegId xd, RegId vs) { return rds1(Op::vpopc, xd, vs); }
    /** xd = index of first set bit of mask vs, or -1. */
    Asm &vfirst(RegId xd, RegId vs) { return rds1(Op::vfirst, xd, vs); }

    // --- finishing -----------------------------------------------------

    /** Resolve labels and return the immutable program. */
    ProgramPtr
    finish()
    {
        for (const auto &fix : fixups) {
            auto it = labels.find(fix.second);
            bvl_assert(it != labels.end(), "undefined label '%s' in %s",
                       fix.second.c_str(), prog->name().c_str());
            prog->code[fix.first].target = it->second;
        }
        fixups.clear();
        finished = true;
        prog->_decoded = decodeProgram(prog->code);
        return prog;
    }

    /** Number of instructions emitted so far. */
    std::size_t size() const { return prog->code.size(); }

  private:
    Asm &
    op0(Op op)
    {
        Instr i;
        i.op = op;
        return emit(i);
    }

    Asm &
    rrr(Op op, RegId rd, RegId a, RegId b)
    {
        Instr i;
        i.op = op;
        i.rd = rd;
        i.rs1 = a;
        i.rs2 = b;
        return emit(i);
    }

    Asm &
    rri(Op op, RegId rd, RegId a, std::int64_t imm)
    {
        Instr i;
        i.op = op;
        i.rd = rd;
        i.rs1 = a;
        i.imm = imm;
        return emit(i);
    }

    Asm &
    frrr(Op op, RegId rd, RegId a, RegId b, unsigned w)
    {
        Instr i;
        i.op = op;
        i.rd = rd;
        i.rs1 = a;
        i.rs2 = b;
        i.ew = static_cast<std::uint8_t>(w);
        return emit(i);
    }

    Asm &
    rds1(Op op, RegId rd, RegId rs1)
    {
        Instr i;
        i.op = op;
        i.rd = rd;
        i.rs1 = rs1;
        return emit(i);
    }

    Asm &
    branch(Op op, RegId a, RegId b, const std::string &l)
    {
        Instr i;
        i.op = op;
        i.rs1 = a;
        i.rs2 = b;
        auto idx = prog->code.size();
        auto it = labels.find(l);
        if (it != labels.end())
            i.target = it->second;
        else
            fixups.emplace_back(idx, l);
        return emit(i);
    }

    ProgramPtr prog;
    std::map<std::string, std::int32_t> labels;
    std::vector<std::pair<std::size_t, std::string>> fixups;
    bool finished = false;
};

} // namespace bvl

#endif // BVL_ISA_PROGRAM_HH
