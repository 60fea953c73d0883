/**
 * @file
 * Interface between the big core and a vector engine (the VLITTLE
 * engine, the integrated vector unit, or the decoupled vector engine).
 *
 * Following the paper (Section III-A): a vector instruction waits in
 * the big core's vector dispatch unit until it reaches the head of the
 * ROB and the engine can accept it. Non-scalar-writing instructions
 * commit on dispatch; scalar-writing instructions (vsetvli, vmv.x.s,
 * vpopc, ...) hold the ROB head until the engine responds.
 */

#ifndef BVL_CPU_VEC_ENGINE_HH
#define BVL_CPU_VEC_ENGINE_HH

#include <functional>

#include "isa/arch_state.hh"

namespace bvl
{

class VectorEngine
{
  public:
    virtual ~VectorEngine() = default;

    /**
     * Can the engine take this instruction now? (Command queue space,
     * plus a scalar-data queue slot if the instruction carries a
     * scalar operand — paper Section III-B.)
     */
    virtual bool canAccept(const ExecTrace &trace) const = 0;

    /**
     * Hand one (functionally already executed) vector instruction to
     * the engine. @p onDone fires when the instruction fully completes
     * in the engine (for scalar-writing ops this is when the scalar
     * response arrives back at the big core).
     */
    virtual void dispatch(const ExecTrace &trace,
                          std::function<void()> onDone) = 0;

    /** True when no work is in flight anywhere in the engine. */
    virtual bool idle() const = 0;

    /**
     * Decoupled engines receive instructions only from the head of
     * the ROB (paper Section III-A); an integrated unit executes in
     * the pipeline and may receive them as soon as their scalar
     * operands are ready (in program order among vector instructions).
     */
    virtual bool dispatchAtHead() const { return true; }
};

} // namespace bvl

#endif // BVL_CPU_VEC_ENGINE_HH
