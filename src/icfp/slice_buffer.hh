/**
 * @file
 * The slice buffer (Sections 3, 3.1, 3.4).
 *
 * Miss-dependent instructions drain here in program order along with their
 * miss-independent side inputs. Rally passes walk the buffer from the
 * head; processed entries are marked un-poisoned in place (never dequeued
 * and re-enqueued, which would break program order under multithreaded
 * advance/rally), and entries whose inputs are still unavailable are
 * simply "re-poisoned" in their existing slots. Space is reclaimed only
 * from the head, so successive passes make the buffer increasingly sparse
 * — banking makes skipping un-poisoned entries cheap (modeled as a
 * skip-bandwidth parameter in the core).
 *
 * Slice-internal dataflow is indexed, not searched. Every entry has a
 * fixed absolute index from push() until the next clear(); a source read
 * from a poisoned register links, at push, to the entry that will produce
 * it (the register's last writer, found through the register file's
 * lastSliceIdx()), and the producer heads a list of its (consumer, source
 * slot) pairs. A rally reads a producer's poison in O(1), and a resolved
 * producer delivers its value by walking its own list. Indices stay valid
 * because the buffer only grows between clear() calls: it reclaims from
 * the head and resets only once no entry is active, when no register is
 * poisoned and so none can still name an old index.
 */

#ifndef ICFP_ICFP_SLICE_BUFFER_HH
#define ICFP_ICFP_SLICE_BUFFER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "bpred/branch_unit.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "core/register_file.hh" // PoisonMask

namespace icfp {

/** No slice index: a captured source's producer, an empty list's end. */
inline constexpr uint32_t kNoSliceIdx = ~uint32_t{0};

/**
 * One source operand of a deferred instruction. A captured source was
 * miss-independent when the entry was inserted (or was delivered when
 * its producer resolved) and its value travels with the entry. An
 * uncaptured source is produced by an older, still-deferred entry: the
 * source names it by sequence number and slice index and sits on its
 * consumer list until the value arrives through the scratch register
 * file / bypass network. A delivered value becomes *usable* only at its
 * readyAt cycle (the producer's completion time on the bypass).
 */
struct SliceSource
{
    RegVal val = 0;
    Cycle readyAt = 0;
    SeqNum producerSeq = 0;          ///< last writer of an uncaptured source
    uint32_t producer = kNoSliceIdx; ///< its slice index; none once captured
    uint32_t next = kNoSliceIdx;     ///< next link on the producer's list

    bool captured() const { return producer == kNoSliceIdx; }
};

/** One deferred miss-dependent instruction and its captured side inputs. */
struct SliceEntry
{
    uint32_t traceIdx = 0;   ///< dynamic instruction this entry defers
    /**
     * Head of the list of sources that read this entry's result, each
     * link encoded as consumer index × 2 + source slot.
     */
    uint32_t consumers = kNoSliceIdx;
    SeqNum seq = 0;          ///< program-order sequence (global)
    PoisonMask poison = 0;   ///< poison bits this entry currently waits on
    bool active = true;      ///< false once successfully re-executed

    std::array<SliceSource, 2> src{}; ///< the instruction's src1, src2

    Ssn storeSsn = 0;            ///< for stores: the SB entry to resolve
    BranchPrediction pred{};     ///< for control: fetch-time prediction
};

/** Program-ordered buffer of deferred slices. */
class SliceBuffer
{
  public:
    explicit SliceBuffer(unsigned capacity) : capacity_(capacity) {}

    /** Un-reclaimed entries (active or awaiting head reclaim). */
    size_t occupancy() const { return entries_.size() - head_; }
    bool full() const { return occupancy() >= capacity_; }
    size_t activeCount() const { return active_; }
    bool noneActive() const { return active_ == 0; }

    /**
     * Operand capture at insertion: a source read from register @p r of
     * @p rf takes the register's value if it is not poisoned, and
     * otherwise names the register's last writer — necessarily a
     * still-active entry of this buffer — for push() to link to.
     * A source with no register (kNoReg) stays captured as zero.
     */
    static void
    captureSource(SliceSource &source, const RegisterFile &rf, RegId r)
    {
        if (r == kNoReg)
            return;
        if (rf.poison(r) == 0) {
            source.val = rf.read(r);
            return;
        }
        source.producerSeq = rf.lastWriter(r);
        source.producer = rf.lastSliceIdx(r);
    }

    /**
     * Append a new entry in program order and link each uncaptured source
     * onto its producer's consumer list. @pre !full()
     * @return the entry's absolute index
     */
    uint32_t
    push(const SliceEntry &entry)
    {
        ICFP_ASSERT(!full());
        ICFP_ASSERT(entry.active && entry.consumers == kNoSliceIdx);
        const size_t idx = entries_.size();
        ICFP_ASSERT(idx < kNoSliceIdx / 2);
        entries_.push_back(entry);
        for (uint32_t slot = 0; slot < 2; ++slot) {
            SliceSource &source = entries_[idx].src[slot];
            if (source.captured())
                continue;
            // The producer is older, un-reclaimed and still the writer
            // the register file named: a stale index fails here.
            ICFP_ASSERT(source.producer >= head_ && source.producer < idx);
            SliceEntry &producer = entries_[source.producer];
            ICFP_ASSERT(producer.active &&
                        producer.seq == source.producerSeq);
            source.next = producer.consumers;
            producer.consumers = static_cast<uint32_t>(idx * 2 + slot);
        }
        ++active_;
        return static_cast<uint32_t>(idx);
    }

    /**
     * Bypass delivery: hand the result of the entry at @p idx to every
     * still-active consumer on its list, capturing the value with its
     * readiness cycle. The one delivery protocol shared by every core
     * that re-executes slices (iCFP's non-blocking rallies, SLTP's
     * blocking rally). Consumers are younger than their producer, so each
     * is still un-reclaimed.
     */
    void
    deliver(size_t idx, RegVal value, Cycle ready_at)
    {
        for (uint32_t link = at(idx).consumers; link != kNoSliceIdx;) {
            SliceEntry &consumer = at(link / 2);
            SliceSource &source = consumer.src[link % 2];
            link = source.next;
            if (!consumer.active)
                continue;
            ICFP_ASSERT(source.producer == idx);
            source.val = value;
            source.readyAt = ready_at;
            source.producer = kNoSliceIdx;
        }
    }

    /** Mark the entry at absolute index @p idx resolved (un-poisoned). */
    void
    resolve(size_t idx)
    {
        ICFP_ASSERT(idx >= head_ && idx < entries_.size());
        ICFP_ASSERT(entries_[idx].active);
        entries_[idx].active = false;
        entries_[idx].poison = 0;
        --active_;
        reclaimHead();
    }

    /**
     * First un-reclaimed absolute index (pass start position). Resolution
     * always reclaims the head, so while any entry is active this is the
     * oldest active one.
     */
    size_t headIndex() const { return head_; }
    /** One past the last entry. */
    size_t endIndex() const { return entries_.size(); }

    SliceEntry &at(size_t idx)
    {
        ICFP_ASSERT(idx >= head_ && idx < entries_.size());
        return entries_[idx];
    }
    const SliceEntry &at(size_t idx) const
    {
        ICFP_ASSERT(idx >= head_ && idx < entries_.size());
        return entries_[idx];
    }

    /**
     * Sequence number of the oldest still-active entry; ~0 when none.
     * Store-buffer drain is gated on this (no store may write the cache
     * while an older instruction is still deferred).
     */
    SeqNum
    oldestActiveSeq() const
    {
        if (head_ == entries_.size())
            return ~SeqNum{0};
        ICFP_ASSERT(entries_[head_].active);
        return entries_[head_].seq;
    }

    /** Drop everything (squash / epoch end); indices restart at 0. */
    void
    clear()
    {
        entries_.clear();
        head_ = 0;
        active_ = 0;
    }

  private:
    /** Free leading inactive entries; reset once none is active. */
    void
    reclaimHead()
    {
        while (head_ < entries_.size() && !entries_[head_].active)
            ++head_;
        if (head_ == entries_.size())
            clear();
    }

    std::vector<SliceEntry> entries_;
    size_t head_ = 0;
    size_t active_ = 0;
    unsigned capacity_;
};

} // namespace icfp

#endif // ICFP_ICFP_SLICE_BUFFER_HH
