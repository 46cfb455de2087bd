//===- tests/test_heap.cpp - Tenured block lifecycle -----------*- C++ -*-===//
//
// The tenured block lifecycle (DESIGN.md §15): a nursery block with a
// survivor is tenured whole, and the sweep hands a tenured block back to
// the host allocator once nothing in it is alive, so a warm engine's heap
// footprint levels off instead of growing with every collection. Also the
// footprint and GC pause figures that make this visible.
//
//===----------------------------------------------------------------------===//

#include "test_helpers.h"

#include "support/stats.h"
#include "support/trace.h"

#include <algorithm>

using namespace cmk;

namespace {

/// Conses 200-element lists until the heap has run \p n collections in
/// all; each collection finds one list alive in the nursery, so every
/// collection tenures a block that is dead by the next one.
const char *consUntilGc() {
  return "(define (build n acc) (if (= n 0) acc (build (- n 1) (cons n acc))))\n"
         "(define (cons-until-gc n)\n"
         "  (if (< (#%vm-stat 'collections) n)\n"
         "      (begin (build 200 '()) (cons-until-gc n))\n"
         "      'ok))";
}

TEST(Heap, ReservedBytesLevelOffAcrossCollections) {
  SchemeEngine E;
  E.evalOrDie(consUntilGc());
  E.evalOrDie("(cons-until-gc 20)");
  uint64_t AtGc20 = E.heap().stats().ReservedBytes;
  E.evalOrDie("(cons-until-gc 100)");
  uint64_t AtGc100 = E.heap().stats().ReservedBytes;
  ASSERT_GE(E.heap().stats().Collections, 100u);
  // Before all-dead tenured blocks were freed this grew by one 256 KiB
  // promoted nursery block per collection (~20 MiB over these 80).
  constexpr uint64_t OneBlock = 1u << 20;
  uint64_t Lo = std::min(AtGc20, AtGc100), Hi = std::max(AtGc20, AtGc100);
  EXPECT_LT(Hi - Lo, OneBlock) << "at GC 20: " << AtGc20
                               << ", at GC 100: " << AtGc100;
}

TEST(Heap, SurvivorInOtherwiseDeadBlockReadsBack) {
  // `keep` (pairs from the nursery, a string and a small vector from
  // allocRaw's blocks) is allocated in the middle of a garbage stream, so
  // each block it lands in is dead except for it. Many collections later
  // every other block around it has been freed; it must read back intact.
  SchemeEngine E;
  E.evalOrDie("(define keep #f)\n"
              "(define (churn n)\n"
              "  (if (= n 0) 'ok\n"
              "      (begin (cons n n) (make-vector 8 n) (string #\\a #\\b)\n"
              "             (if (= n 20000)\n"
              "                 (set! keep (list 1 \"two\" (vector 3 'four))))\n"
              "             (churn (- n 1)))))\n"
              "(churn 40000)");
  E.evalOrDie(consUntilGc());
  E.evalOrDie("(cons-until-gc (+ (#%vm-stat 'collections) 30))");
  expectEval(E, "keep", "(1 \"two\" #(3 four))");
  EXPECT_GT(E.stats().TenuredBlocksFreed, 0u);
  // BytesInUse stays exact: right after a collection it holds exactly the
  // live bytes plus the pooled (committed, free) segments.
  E.heap().collect();
  EXPECT_EQ(E.heap().bytesInUse(), E.heap().stats().LiveBytesAfterLastGC +
                                       E.heap().pooledSegmentBytes());
  expectEval(E, "keep", "(1 \"two\" #(3 four))");
}

TEST(Heap, TenuredBlocksFreedCounts) {
  SchemeEngine E;
  E.evalOrDie(consUntilGc());
  E.evalOrDie("(cons-until-gc 5)");
  EXPECT_GT(E.stats().TenuredBlocksFreed, 0u);
  expectEval(E, "(> (cdr (assq 'tenured-blocks-freed (runtime-stats))) 0)",
             "#t");
  expectEval(E, "(> (cdr (assq 'gc-reserved-bytes (runtime-stats))) 0)",
             "#t");
  EXPECT_NE(E.metricsText().find("cmarks_engine_heap_reserved_bytes"),
            std::string::npos);
}

TEST(Heap, CollectionPausesAreTimedAndTraced) {
  SchemeEngine E;
  E.startTrace();
  E.evalOrDie("(collect-garbage)");
  E.stopTrace();
  const HeapStats &HS = E.heap().stats();
  ASSERT_GE(HS.Collections, 1u);
  EXPECT_GT(HS.GCPauseNsTotal, 0u);
  EXPECT_GT(HS.GCPauseNsMax, 0u);
  EXPECT_LE(HS.GCPauseNsMax, HS.GCPauseNsTotal);
  uint64_t Begins = 0, Ends = 0;
  const TraceBuffer &T = E.trace();
  for (uint64_t I = 0; I < T.size(); ++I) {
    Begins += T.at(I).Kind == TraceEv::GcBegin;
    Ends += T.at(I).Kind == TraceEv::GcEnd;
  }
  EXPECT_GE(Begins, 1u);
  EXPECT_EQ(Begins, Ends);
  EXPECT_NE(E.traceToJson().find("\"cat\":\"gc\""), std::string::npos);
}

} // namespace
