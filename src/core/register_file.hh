/**
 * @file
 * Architectural register file with poison bitvectors, last-writer sequence
 * numbers, and a single create/restore checkpoint (the "shadow bitcell"
 * checkpoint of Section 3; see also Figure 3's RF0/RF1 annotations).
 *
 * The same class serves as RF0 (main) and RF1 (scratch/slice): RF1 simply
 * never takes checkpoints.
 */

#ifndef ICFP_CORE_REGISTER_FILE_HH
#define ICFP_CORE_REGISTER_FILE_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/interpreter.hh"

namespace icfp {

/** A poison bitvector (Section 3.4); width 1 degenerates to a poison bit. */
using PoisonMask = uint16_t;

/** Register file with poison/sequence metadata and one checkpoint. */
class RegisterFile
{
  public:
    RegisterFile() { clearAll(); }

    /** Value read; r0 is hardwired to zero. */
    RegVal
    read(RegId r) const
    {
        return r == 0 ? 0 : regs_[r].value;
    }

    /** Poison bits of @p r (r0 is never poisoned). */
    PoisonMask
    poison(RegId r) const
    {
        return r == 0 ? 0 : regs_[r].poison;
    }

    /** Last-writer sequence number of @p r. */
    SeqNum lastWriter(RegId r) const { return regs_[r].lastWriter; }

    /**
     * Slice-buffer index of @p r's last writer; meaningful only while
     * @p r is poisoned (its last writer is then a deferred slice entry).
     */
    uint32_t lastSliceIdx(RegId r) const { return regs_[r].sliceIdx; }

    /**
     * Unconditional write (in-order/tail path): sets the value, clears
     * poison, and stamps the last-writer sequence number.
     */
    void
    write(RegId r, RegVal value, SeqNum seq)
    {
        if (r == 0)
            return;
        regs_[r].value = value;
        regs_[r].poison = 0;
        regs_[r].lastWriter = seq;
    }

    /**
     * Poisoning write (advance path, miss-dependent destination): marks
     * the register poisoned and stamps the last writer — its sequence
     * number, which later gates the rally's merge (Section 3.1), and the
     * slice-buffer index @p slice_idx of the deferred entry that will
     * produce the value, which links younger readers to it.
     */
    void
    writePoisoned(RegId r, PoisonMask poison_bits, SeqNum seq,
                  uint32_t slice_idx)
    {
        if (r == 0)
            return;
        regs_[r].poison = poison_bits;
        regs_[r].lastWriter = seq;
        regs_[r].sliceIdx = slice_idx;
    }

    /**
     * Gated write from rally execution: updates the register only if this
     * instruction is still the register's last writer (avoids WAW
     * violations with younger tail instructions).
     *
     * @return true if the write landed
     */
    bool
    writeGated(RegId r, RegVal value, SeqNum seq)
    {
        if (r == 0)
            return false;
        if (regs_[r].lastWriter != seq)
            return false;
        regs_[r].value = value;
        regs_[r].poison = 0;
        return true;
    }

    /** Any register still poisoned? */
    bool
    anyPoisoned() const
    {
        for (int r = 1; r < kNumRegs; ++r) {
            if (regs_[r].poison != 0)
                return true;
        }
        return false;
    }

    /** Clear the given poison bits everywhere (pass start on RF1). */
    void
    clearPoisonBits(PoisonMask bits)
    {
        for (int r = 1; r < kNumRegs; ++r)
            regs_[r].poison &= static_cast<PoisonMask>(~bits);
    }

    /** Zero all poison and sequence metadata (epoch start). */
    void
    clearMeta()
    {
        for (auto &reg : regs_) {
            reg.poison = 0;
            reg.lastWriter = 0;
        }
    }

    /** Zero everything (construction / tests). */
    void
    clearAll()
    {
        for (auto &reg : regs_)
            reg = Reg{};
    }

    /** Snapshot values into the shadow checkpoint. */
    void
    checkpoint()
    {
        for (int r = 0; r < kNumRegs; ++r)
            shadow_[r] = regs_[r].value;
    }

    /** Restore values from the shadow checkpoint; clears all metadata. */
    void
    restore()
    {
        for (int r = 0; r < kNumRegs; ++r) {
            regs_[r].value = shadow_[r];
            regs_[r].poison = 0;
            regs_[r].lastWriter = 0;
        }
    }

    /** Bulk-load architectural values (test setup / golden comparison). */
    void
    setValues(const RegFileState &values)
    {
        for (int r = 0; r < kNumRegs; ++r)
            regs_[r].value = values[r];
    }

    /** Extract architectural values. */
    RegFileState
    values() const
    {
        RegFileState out{};
        for (int r = 0; r < kNumRegs; ++r)
            out[r] = r == 0 ? 0 : regs_[r].value;
        return out;
    }

  private:
    struct Reg
    {
        RegVal value = 0;
        SeqNum lastWriter = 0;
        uint32_t sliceIdx = 0; ///< see lastSliceIdx()
        PoisonMask poison = 0;
    };

    std::array<Reg, kNumRegs> regs_;
    std::array<RegVal, kNumRegs> shadow_{};
};

} // namespace icfp

#endif // ICFP_CORE_REGISTER_FILE_HH
