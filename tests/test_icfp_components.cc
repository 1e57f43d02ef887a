/**
 * @file
 * Unit and property tests for the iCFP mechanisms: the chained store
 * buffer (including a property sweep against an associative reference
 * model), the chain table, the slice buffer and its producer/consumer
 * links, poison vectors, the register file's sequence gating, and the
 * MP-safety signature.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/register_file.hh"
#include "icfp/chained_store_buffer.hh"
#include "icfp/poison.hh"
#include "icfp/signature.hh"
#include "icfp/slice_buffer.hh"

namespace icfp {
namespace {

// ---- ChainedStoreBuffer -----------------------------------------------------

ChainedSbParams
smallSb(SbMode mode = SbMode::Chained)
{
    ChainedSbParams p;
    p.entries = 16;
    p.chainTableEntries = 8;
    p.mode = mode;
    return p;
}

TEST(ChainedSb, ForwardYoungestOlderStore)
{
    ChainedStoreBuffer sb(smallSb());
    sb.allocate(0x100, 11, 0, /*seq=*/1);
    sb.allocate(0x100, 22, 0, /*seq=*/2);
    sb.allocate(0x200, 33, 0, /*seq=*/3);

    const SbLookupResult r = sb.lookup(0x100, /*load_seq=*/5, nullptr);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.value, 22u); // youngest older store wins
}

TEST(ChainedSb, RallyLoadSkipsYoungerStores)
{
    ChainedStoreBuffer sb(smallSb());
    sb.allocate(0x100, 11, 0, /*seq=*/1);
    sb.allocate(0x100, 99, 0, /*seq=*/10); // younger than the rally load
    const SbLookupResult r = sb.lookup(0x100, /*load_seq=*/5, nullptr);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.value, 11u);
}

TEST(ChainedSb, MissWhenNoMatchingOlderStore)
{
    ChainedStoreBuffer sb(smallSb());
    sb.allocate(0x100, 11, 0, 5);
    EXPECT_FALSE(sb.lookup(0x300, 10, nullptr).found);
    EXPECT_FALSE(sb.lookup(0x100, 3, nullptr).found); // store is younger
}

TEST(ChainedSb, PoisonPropagatesToLoad)
{
    ChainedStoreBuffer sb(smallSb());
    const Ssn ssn = sb.allocate(0x100, 0, /*poison=*/0b10, 1);
    SbLookupResult r = sb.lookup(0x100, 5, nullptr);
    EXPECT_TRUE(r.found);
    EXPECT_TRUE(r.poisoned);
    EXPECT_EQ(r.poison, 0b10);
    // Rally resolution clears it.
    sb.resolve(ssn, 77);
    r = sb.lookup(0x100, 5, nullptr);
    EXPECT_FALSE(r.poisoned);
    EXPECT_EQ(r.value, 77u);
}

TEST(ChainedSb, UpdatePoisonRetargetsBits)
{
    ChainedStoreBuffer sb(smallSb());
    const Ssn ssn = sb.allocate(0x100, 0, 0b01, 1);
    sb.updatePoison(ssn, 0b100);
    EXPECT_EQ(sb.lookup(0x100, 5, nullptr).poison, 0b100);
}

TEST(ChainedSb, DrainInProgramOrderGatedByOldestActive)
{
    ChainedStoreBuffer sb(smallSb());
    sb.allocate(0x100, 1, 0, /*seq=*/10);
    sb.allocate(0x200, 2, 0, /*seq=*/20);

    Addr addr;
    RegVal value;
    // An active slice entry at seq 15 blocks the second store only.
    EXPECT_TRUE(sb.drainHead(15, &addr, &value));
    EXPECT_EQ(addr, 0x100u);
    EXPECT_FALSE(sb.drainHead(15, &addr, &value));
    EXPECT_TRUE(sb.drainHead(~SeqNum{0}, &addr, &value));
    EXPECT_EQ(addr, 0x200u);
    EXPECT_TRUE(sb.empty());
}

TEST(ChainedSb, PoisonedHeadBlocksDrain)
{
    ChainedStoreBuffer sb(smallSb());
    const Ssn ssn = sb.allocate(0x100, 0, 1, 1);
    Addr addr;
    RegVal value;
    EXPECT_FALSE(sb.drainHead(~SeqNum{0}, &addr, &value));
    sb.resolve(ssn, 42);
    EXPECT_TRUE(sb.drainHead(~SeqNum{0}, &addr, &value));
    EXPECT_EQ(value, 42u);
}

TEST(ChainedSb, FullAndOccupancy)
{
    ChainedSbParams p = smallSb();
    p.entries = 4;
    ChainedStoreBuffer sb(p);
    for (int i = 0; i < 4; ++i)
        sb.allocate(Addr{0x100} + 8u * i, i, 0, i);
    EXPECT_TRUE(sb.full());
    Addr addr;
    RegVal value;
    sb.drainHead(~SeqNum{0}, &addr, &value);
    EXPECT_FALSE(sb.full());
    EXPECT_EQ(sb.occupancy(), 3u);
}

TEST(ChainedSb, SquashRestoresChains)
{
    ChainedStoreBuffer sb(smallSb());
    sb.allocate(0x100, 1, 0, 1);
    const Ssn snap = sb.ssnTail();
    sb.allocate(0x100, 2, 0, 2);
    sb.allocate(0x180, 3, 0, 3); // collides with 0x100's hash? separate ok
    sb.squashTo(snap);
    // Only the pre-snapshot store remains and must still forward.
    const SbLookupResult r = sb.lookup(0x100, 10, nullptr);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.value, 1u);
    EXPECT_EQ(sb.occupancy(), 1u);
}

TEST(ChainedSb, ExcessHopsCountedOnCollisions)
{
    // Chain table of 1 entry: every store shares one chain.
    ChainedSbParams p;
    p.entries = 16;
    p.chainTableEntries = 1;
    ChainedStoreBuffer sb(p);
    for (int i = 0; i < 8; ++i)
        sb.allocate(Addr{0x1000} + 64u * i, i, 0, i);
    SbStats stats;
    const SbLookupResult r = sb.lookup(0x1000, 100, &stats);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.excessHops, 7u); // walked the whole chain
}

TEST(ChainedSb, IndexedLimitedStallsOnHashConflict)
{
    ChainedSbParams p = smallSb(SbMode::IndexedLimited);
    p.chainTableEntries = 1; // force conflicts
    ChainedStoreBuffer sb(p);
    sb.allocate(0x100, 1, 0, 1);
    sb.allocate(0x200, 2, 0, 2); // different address, same hash bucket
    const SbLookupResult r = sb.lookup(0x100, 10, nullptr);
    EXPECT_TRUE(r.mustStall);
}

TEST(ChainedSb, FullyAssocMatchesChainedResults)
{
    // Property: for random store/load sequences, Chained and FullyAssoc
    // agree on every forwarding decision.
    Rng rng(123);
    ChainedStoreBuffer chained(smallSb(SbMode::Chained));
    ChainedStoreBuffer assoc(smallSb(SbMode::FullyAssoc));
    SeqNum seq = 1;
    for (int step = 0; step < 400; ++step) {
        if (!chained.full() && rng.chance(0.5)) {
            const Addr addr = rng.below(32) * 8;
            const RegVal val = rng.next();
            chained.allocate(addr, val, 0, seq);
            assoc.allocate(addr, val, 0, seq);
            ++seq;
        } else if (!chained.empty() && rng.chance(0.6)) {
            Addr a1, a2;
            RegVal v1, v2;
            const bool d1 = chained.drainHead(~SeqNum{0}, &a1, &v1);
            const bool d2 = assoc.drainHead(~SeqNum{0}, &a2, &v2);
            ASSERT_EQ(d1, d2);
            if (d1) {
                ASSERT_EQ(a1, a2);
                ASSERT_EQ(v1, v2);
            }
        }
        const Addr probe = rng.below(32) * 8;
        const SeqNum ls = rng.below(seq + 2);
        const SbLookupResult rc = chained.lookup(probe, ls, nullptr);
        const SbLookupResult ra = assoc.lookup(probe, ls, nullptr);
        ASSERT_EQ(rc.found, ra.found) << "step " << step;
        if (rc.found) {
            ASSERT_EQ(rc.value, ra.value) << "step " << step;
        }
    }
}

TEST(ChainedSb, SsnWraparoundThroughBufferReuse)
{
    // Exercise many allocate/drain rounds so buffer slots are recycled
    // far past the entry count.
    ChainedSbParams p = smallSb();
    p.entries = 4;
    ChainedStoreBuffer sb(p);
    Addr addr;
    RegVal value;
    for (SeqNum seq = 1; seq <= 1000; ++seq) {
        sb.allocate(seq % 16 * 8, seq, 0, seq);
        const SbLookupResult r = sb.lookup(seq % 16 * 8, seq + 1, nullptr);
        ASSERT_TRUE(r.found);
        ASSERT_EQ(r.value, seq);
        ASSERT_TRUE(sb.drainHead(~SeqNum{0}, &addr, &value));
    }
}

// ---- SliceBuffer ------------------------------------------------------------

SliceEntry
entryAt(SeqNum seq, PoisonMask poison = 1)
{
    SliceEntry e;
    e.traceIdx = static_cast<uint32_t>(seq);
    e.seq = seq;
    e.poison = poison;
    return e;
}

TEST(SliceBuffer, PushResolveReclaim)
{
    SliceBuffer sb(4);
    sb.push(entryAt(1));
    sb.push(entryAt(2));
    EXPECT_EQ(sb.occupancy(), 2u);
    EXPECT_EQ(sb.oldestActiveSeq(), 1u);
    sb.resolve(sb.headIndex());
    EXPECT_EQ(sb.occupancy(), 1u); // head reclaimed
    EXPECT_EQ(sb.oldestActiveSeq(), 2u);
    sb.resolve(sb.headIndex());
    EXPECT_TRUE(sb.noneActive());
    EXPECT_EQ(sb.occupancy(), 0u);
}

TEST(SliceBuffer, MiddleResolutionKeepsSparseOccupancy)
{
    SliceBuffer sb(8);
    sb.push(entryAt(1));
    sb.push(entryAt(2));
    sb.push(entryAt(3));
    sb.resolve(sb.headIndex() + 1); // resolve the middle entry
    // Space is reclaimed only from the head (Section 3.4).
    EXPECT_EQ(sb.occupancy(), 3u);
    EXPECT_EQ(sb.activeCount(), 2u);
    sb.resolve(sb.headIndex());
    // Now the head reclaim skips the already-resolved middle entry.
    EXPECT_EQ(sb.occupancy(), 1u);
    EXPECT_EQ(sb.oldestActiveSeq(), 3u);
}

TEST(SliceBuffer, FullBound)
{
    SliceBuffer sb(2);
    sb.push(entryAt(1));
    EXPECT_FALSE(sb.full());
    sb.push(entryAt(2));
    EXPECT_TRUE(sb.full());
}

TEST(SliceBuffer, ClearEmptiesEverything)
{
    SliceBuffer sb(4);
    sb.push(entryAt(1));
    sb.clear();
    EXPECT_EQ(sb.occupancy(), 0u);
    EXPECT_TRUE(sb.noneActive());
    EXPECT_EQ(sb.oldestActiveSeq(), ~SeqNum{0});
}

/**
 * An entry at @p seq whose source @p slot reads a register that the
 * entry at slice index @p producer_idx (sequence @p producer_seq) left
 * poisoned — what captureSource() records for a poisoned register.
 */
SliceEntry
consumerAt(SeqNum seq, unsigned slot, uint32_t producer_idx,
           SeqNum producer_seq)
{
    SliceEntry e = entryAt(seq);
    e.src[slot].producer = producer_idx;
    e.src[slot].producerSeq = producer_seq;
    return e;
}

TEST(SliceBuffer, CaptureSourceNamesThePoisonedRegistersLastWriter)
{
    SliceBuffer sb(8);
    RegisterFile rf;
    rf.write(1, 42, 0);
    const uint32_t p = sb.push(entryAt(5));
    rf.writePoisoned(2, 0b1, 5, p);

    SliceEntry e = entryAt(6);
    SliceBuffer::captureSource(e.src[0], rf, 1);
    SliceBuffer::captureSource(e.src[1], rf, 2);
    EXPECT_TRUE(e.src[0].captured());
    EXPECT_EQ(e.src[0].val, 42u);
    EXPECT_FALSE(e.src[1].captured());
    EXPECT_EQ(e.src[1].producer, p);
    EXPECT_EQ(e.src[1].producerSeq, 5u);

    SliceEntry none = entryAt(7);
    SliceBuffer::captureSource(none.src[0], rf, kNoReg);
    EXPECT_TRUE(none.src[0].captured());
    EXPECT_EQ(none.src[0].val, 0u);
}

TEST(SliceBuffer, OneProducerDeliversToThreeConsumers)
{
    SliceBuffer sb(8);
    const uint32_t p = sb.push(entryAt(10));
    const uint32_t c1 = sb.push(consumerAt(11, 0, p, 10));
    const uint32_t c2 = sb.push(consumerAt(12, 1, p, 10));
    sb.push(entryAt(13)); // unrelated: must not receive the value
    const uint32_t c3 = sb.push(consumerAt(14, 0, p, 10));
    EXPECT_EQ(sb.at(p).poison, 1); // O(1) poison read through the link

    sb.deliver(p, 77, 500);
    sb.resolve(p);
    for (const auto &[idx, slot] :
         {std::pair{c1, 0}, std::pair{c2, 1}, std::pair{c3, 0}}) {
        const SliceSource &s = sb.at(idx).src[slot];
        EXPECT_TRUE(s.captured());
        EXPECT_EQ(s.val, 77u);
        EXPECT_EQ(s.readyAt, 500u);
    }
    EXPECT_EQ(sb.at(c2).src[0].val, 0u); // the other slot is untouched
    EXPECT_EQ(sb.at(p + 3).src[0].val, 0u);
    EXPECT_EQ(sb.at(p + 3).src[1].val, 0u);
}

TEST(SliceBuffer, OneProducerFeedsBothSourcesOfOneConsumer)
{
    SliceBuffer sb(4);
    const uint32_t p = sb.push(entryAt(3));
    SliceEntry both = consumerAt(4, 0, p, 3);
    both.src[1] = both.src[0];
    const uint32_t c = sb.push(both);

    sb.deliver(p, 9, 40);
    for (const SliceSource &s : sb.at(c).src) {
        EXPECT_TRUE(s.captured());
        EXPECT_EQ(s.val, 9u);
        EXPECT_EQ(s.readyAt, 40u);
    }
}

TEST(SliceBuffer, ResolvedConsumerIsSkippedByDelivery)
{
    SliceBuffer sb(4);
    const uint32_t p = sb.push(entryAt(1));
    const uint32_t gone = sb.push(consumerAt(2, 0, p, 1));
    const uint32_t live = sb.push(consumerAt(3, 1, p, 1));
    sb.resolve(gone); // resolved before its producer delivers

    sb.deliver(p, 5, 9);
    EXPECT_FALSE(sb.at(gone).src[0].captured()); // not written
    EXPECT_EQ(sb.at(gone).src[0].val, 0u);
    EXPECT_TRUE(sb.at(live).src[1].captured());
    EXPECT_EQ(sb.at(live).src[1].val, 5u);
}

TEST(SliceBuffer, LinksSurviveHeadReclaim)
{
    SliceBuffer sb(8);
    sb.push(entryAt(1));
    sb.push(entryAt(2));
    const uint32_t p = sb.push(entryAt(3));
    const uint32_t c = sb.push(consumerAt(4, 0, p, 3));
    sb.resolve(0);
    sb.resolve(1);
    ASSERT_EQ(sb.headIndex(), p); // reclaimed up to the producer
    EXPECT_EQ(sb.oldestActiveSeq(), 3u);
    // Absolute indices do not move when the head is reclaimed.
    EXPECT_EQ(sb.at(p).seq, 3u);
    EXPECT_EQ(sb.at(c).src[0].producer, p);

    // A consumer pushed after the reclaim links to the same producer.
    const uint32_t late = sb.push(consumerAt(5, 1, p, 3));
    sb.deliver(p, 123, 7);
    sb.resolve(p);
    EXPECT_EQ(sb.headIndex(), c);
    EXPECT_EQ(sb.at(c).src[0].val, 123u);
    EXPECT_EQ(sb.at(late).src[1].val, 123u);
}

TEST(SliceBuffer, ClearResetsIndicesAndLists)
{
    SliceBuffer sb(4);
    const uint32_t p = sb.push(entryAt(1));
    sb.push(consumerAt(2, 0, p, 1));
    sb.clear(); // squash: the consumer and its link are gone

    const uint32_t fresh = sb.push(entryAt(8));
    EXPECT_EQ(fresh, 0u); // indices restart
    EXPECT_EQ(sb.at(fresh).consumers, kNoSliceIdx);
    const uint32_t c = sb.push(consumerAt(9, 1, fresh, 8));
    EXPECT_EQ(c, 1u);
    sb.deliver(fresh, 4, 2);
    EXPECT_EQ(sb.at(c).src[1].val, 4u);

    // Draining every entry resets the indices the same way.
    sb.resolve(fresh);
    sb.resolve(c);
    EXPECT_EQ(sb.push(entryAt(20)), 0u);
}

TEST(SliceBufferDeathTest, StaleProducerLinkIsCaught)
{
    SliceBuffer sb(4);
    const uint32_t p = sb.push(entryAt(1));
    sb.push(entryAt(2));
    sb.resolve(p); // reclaimed: no consumer may link to it any more
    EXPECT_DEATH(sb.push(consumerAt(3, 0, p, 1)), "assertion failed");
    // Nor to a live index whose entry is not the named writer.
    EXPECT_DEATH(sb.push(consumerAt(3, 0, p + 1, 1)), "assertion failed");
}

// ---- Poison -----------------------------------------------------------------

TEST(Poison, MaskWidthCollapse)
{
    EXPECT_EQ(poisonBitMask(0, 8), 0b1);
    EXPECT_EQ(poisonBitMask(3, 8), 0b1000);
    EXPECT_EQ(poisonBitMask(9, 8), 0b10); // wraps at width
    EXPECT_EQ(poisonBitMask(5, 1), 0b1);  // single-bit degenerates
}

TEST(Poison, PendingQueueOrdering)
{
    PendingMissQueue q;
    q.push(100, 0b01);
    q.push(50, 0b10);
    q.push(200, 0b100);
    EXPECT_EQ(q.nextFillAt(), 50u);
    EXPECT_EQ(q.popReturned(49), 0);
    EXPECT_EQ(q.popReturned(120), 0b11); // both early events
    EXPECT_EQ(q.size(), 1u);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextFillAt(), kCycleNever);
}

// ---- RegisterFile gating ----------------------------------------------------

TEST(RegisterFile, SequenceGatedMerge)
{
    RegisterFile rf;
    rf.writePoisoned(4, 0b1, /*seq=*/8, 0); // advance instr 8 poisons r4
    EXPECT_EQ(rf.poison(4), 0b1);
    // A rally write from an OLDER instruction (seq 2) must be suppressed.
    EXPECT_FALSE(rf.writeGated(4, 111, 2));
    EXPECT_EQ(rf.poison(4), 0b1);
    // The actual last writer lands and un-poisons.
    EXPECT_TRUE(rf.writeGated(4, 222, 8));
    EXPECT_EQ(rf.read(4), 222u);
    EXPECT_EQ(rf.poison(4), 0);
}

TEST(RegisterFile, TailWriteClearsPoisonAndRetargets)
{
    // Figure 3: rally writes to r3/r4 are suppressed because younger
    // advance instructions already overwrote them.
    RegisterFile rf;
    rf.writePoisoned(3, 0b1, 0, 0); // seq 0 load poisons r3
    rf.write(3, 3, 6);           // seq 6 tail instr overwrites r3
    EXPECT_EQ(rf.poison(3), 0);
    EXPECT_FALSE(rf.writeGated(3, 9, 0)); // rally write suppressed
    EXPECT_EQ(rf.read(3), 3u);
}

TEST(RegisterFile, CheckpointRestore)
{
    RegisterFile rf;
    rf.write(1, 100, 1);
    rf.checkpoint();
    rf.write(1, 200, 2);
    rf.writePoisoned(2, 0b1, 3, 0);
    rf.restore();
    EXPECT_EQ(rf.read(1), 100u);
    EXPECT_EQ(rf.poison(2), 0);
    EXPECT_FALSE(rf.anyPoisoned());
}

TEST(RegisterFile, R0AlwaysZeroNeverPoisoned)
{
    RegisterFile rf;
    rf.write(0, 55, 1);
    rf.writePoisoned(0, 0b1, 2, 0);
    EXPECT_EQ(rf.read(0), 0u);
    EXPECT_EQ(rf.poison(0), 0);
}

// ---- Signature --------------------------------------------------------------

TEST(Signature, InsertedAddressesAlwaysProbe)
{
    Signature sig(1024);
    Rng rng(7);
    std::vector<Addr> addrs;
    for (int i = 0; i < 50; ++i)
        addrs.push_back(rng.below(1 << 20) * 8);
    for (const Addr a : addrs)
        sig.insert(a);
    for (const Addr a : addrs)
        EXPECT_TRUE(sig.probe(a)); // no false negatives, ever
}

TEST(Signature, FalsePositiveRateIsLow)
{
    Signature sig(1024);
    Rng rng(8);
    for (int i = 0; i < 32; ++i)
        sig.insert(rng.below(1 << 16) * 8);
    unsigned fp = 0;
    const unsigned probes = 2000;
    for (unsigned i = 0; i < probes; ++i)
        fp += sig.probe((Addr{1} << 30) + i * 8);
    EXPECT_LT(double(fp) / probes, 0.05);
}

TEST(Signature, ClearEmpties)
{
    Signature sig(1024);
    sig.insert(0x100);
    EXPECT_FALSE(sig.empty());
    sig.clear();
    EXPECT_TRUE(sig.empty());
    EXPECT_FALSE(sig.probe(0x100));
}

} // namespace
} // namespace icfp
