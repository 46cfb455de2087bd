//===- runtime/heap.cpp - Mark-sweep collector implementation -*- C++ -*-===//

#include "runtime/heap.h"

#include "support/faults.h"
#include "support/stats.h"
#include "support/timing.h"
#include "support/trace.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>

// Recycled segments are poisoned while pooled so a use-after-recycle trips
// AddressSanitizer instead of silently reading stale frames.
#if defined(__SANITIZE_ADDRESS__)
#define CMK_HEAP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CMK_HEAP_ASAN 1
#endif
#endif
#ifndef CMK_HEAP_ASAN
#define CMK_HEAP_ASAN 0
#endif
#if CMK_HEAP_ASAN
#include <sanitizer/asan_interface.h>
#endif

using namespace cmk;

namespace {
/// Internal pseudo-kind marking a swept (free) chunk inside a block.
constexpr uint8_t FreeChunkKind = 0xFF;

constexpr size_t BlockSize = 1u << 20;      // 1 MiB bump blocks.
constexpr size_t MaxSmallBytes = 1024;      // Larger allocations use malloc.
constexpr uint64_t InitialGCThreshold = 16ull << 20;
constexpr size_t NumSymBuckets = 4096;

// Segment pool tuning: the pool holds at most this many bytes (beyond it,
// dead segments fall back to the sweep's free path), and nursery blocks are
// small enough that an all-dead rewind is the common case.
constexpr uint64_t SegPoolByteCap = 16ull << 20;
constexpr size_t NurseryBlockSize = 256u << 10;
constexpr size_t MaxNurseryObjBytes = 512;
constexpr size_t MaxSpareNurseryBlocks = 4;

/// floor(log2(Bytes)); segment-pool class of a chunk's true size.
size_t segClassOf(size_t Bytes) {
  size_t C = 0;
  while (Bytes > 1) {
    Bytes >>= 1;
    ++C;
  }
  return C;
}

/// The byte range of a pooled chunk that is dead while pooled: everything
/// past Slots[0] (which holds the pool's intrusive next pointer).
char *pooledDeadLo(StackSegObj *S) {
  return reinterpret_cast<char *>(&S->Slots[1]);
}
char *pooledDeadHi(StackSegObj *S) {
  return reinterpret_cast<char *>(S) + S->H.SizeBytes;
}

void poisonPooledSeg(StackSegObj *S) {
  char *Lo = pooledDeadLo(S), *Hi = pooledDeadHi(S);
  if (Hi <= Lo)
    return;
#ifndef NDEBUG
  std::memset(Lo, 0xAB, Hi - Lo);
#endif
#if CMK_HEAP_ASAN
  __asan_poison_memory_region(Lo, Hi - Lo);
#endif
}

void unpoisonPooledSeg(StackSegObj *S) {
#if CMK_HEAP_ASAN
  char *Lo = pooledDeadLo(S), *Hi = pooledDeadHi(S);
  if (Hi > Lo)
    __asan_unpoison_memory_region(Lo, Hi - Lo);
#else
  (void)S;
#endif
}

struct FreeChunk {
  ObjHeader H;
  void *Next;
};

uint64_t fnv1a(const char *Data, uint32_t Len) {
  uint64_t Hash = 1469598103934665603ull;
  for (uint32_t I = 0; I < Len; ++I) {
    Hash ^= static_cast<unsigned char>(Data[I]);
    Hash *= 1099511628211ull;
  }
  return Hash;
}

size_t sizeClassOf(size_t RoundedBytes) { return RoundedBytes / 16 - 1; }

const HeapCounterDesc HeapCounters[] = {
    {"gc-collections", &HeapStats::Collections},
    {"gc-one-shot-promotions", &HeapStats::OneShotPromotions},
    {"gc-bytes-allocated", &HeapStats::BytesAllocated},
    {"gc-reserved-bytes", &HeapStats::ReservedBytes},
    {"gc-pause-ns-total", &HeapStats::GCPauseNsTotal},
    {"gc-pause-ns-max", &HeapStats::GCPauseNsMax},
};
} // namespace

const HeapCounterDesc *cmk::heapStatsCounters(int &Count) {
  Count = static_cast<int>(sizeof(HeapCounters) / sizeof(HeapCounters[0]));
  return HeapCounters;
}

GCRoot::GCRoot(Heap &H, Value V) : H(H), V(V) { H.TempRoots.push_back(this); }

GCRoot::~GCRoot() {
  assert(!H.TempRoots.empty() && H.TempRoots.back() == this &&
         "GCRoots must nest like a stack");
  H.TempRoots.pop_back();
}

RootedValues::RootedValues(Heap &H) : H(H) { H.TempVectors.push_back(this); }

RootedValues::~RootedValues() {
  assert(!H.TempVectors.empty() && H.TempVectors.back() == this &&
         "RootedValues must nest like a stack");
  H.TempVectors.pop_back();
}

Heap::Heap() : GCThreshold(InitialGCThreshold) {
  SymBuckets.resize(NumSymBuckets);
}

Heap::~Heap() {
  // Run finalizers for string ports, then release all memory.
  auto FinalizeObj = [](ObjHeader *O) {
    if (O->Kind == ObjKind::Port && O->Aux == 1)
      delete static_cast<std::string *>(reinterpret_cast<PortObj *>(O)->Stream);
  };
  for (Block &B : Blocks) {
    char *P = B.Mem;
    while (P < B.Mem + B.Used) {
      ObjHeader *O = reinterpret_cast<ObjHeader *>(P);
      if (static_cast<uint8_t>(O->Kind) != FreeChunkKind)
        FinalizeObj(O);
      P += O->SizeBytes;
    }
    std::free(B.Mem);
  }
  for (Block &B : NurseryBlocks) {
    char *P = B.Mem;
    while (P < B.Mem + B.Used) {
      ObjHeader *O = reinterpret_cast<ObjHeader *>(P);
      if (static_cast<uint8_t>(O->Kind) != FreeChunkKind)
        FinalizeObj(O);
      P += O->SizeBytes;
    }
    std::free(B.Mem);
  }
  for (Block &B : SpareBlocks)
    std::free(B.Mem);
  for (ObjHeader *O : LargeObjs) {
    if (O->Kind == ObjKind::StackSeg && (O->Flags & objflags::SegPooled))
      unpoisonPooledSeg(reinterpret_cast<StackSegObj *>(O));
    else
      FinalizeObj(O);
    std::free(O);
  }
}

void Heap::addRootSource(GCRootSource *Src) { RootSources.push_back(Src); }

void Heap::removeRootSource(GCRootSource *Src) {
  for (size_t I = 0; I < RootSources.size(); ++I) {
    if (RootSources[I] == Src) {
      RootSources.erase(RootSources.begin() + I);
      return;
    }
  }
}

void *Heap::checkedMalloc(size_t Bytes, const char *What) {
  void *Mem = std::malloc(Bytes);
  if (!Mem) {
    // Real OOM from the host: the segment pool is pure slack, give it back
    // first; a collection may then return free chunks to size-class lists
    // and, more importantly, lets a retry reuse address space the
    // allocator already holds.
    releasePooledSegments();
    if (!GCPaused && !InGC)
      collect();
    releaseSpareBlocks();
    Mem = std::malloc(Bytes);
  }
  if (!Mem)
    throw ResourceExhausted{TripKind::HeapLimit, What};
  return Mem;
}

void Heap::checkHeapBudget(size_t Rounded) {
  // Failing fault sites: pretend this allocation exhausted the budget.
  if (CMK_FAULT(FaultsPtr, Oom))
    injectHeapTrip();

  if (!LimitsPtr || LimitsPtr->HeapBytes == 0)
    return;
  uint64_t Budget = LimitsPtr->HeapBytes;
  if (BytesInUse + Rounded <= Budget)
    return;

  // Pooled-but-free segments count against the budget (they are committed
  // memory); before escalating to a collection or a headroom grant, give
  // that slack back so a program cycling segments within its budget never
  // trips just because the pool filled.
  if (PooledSegCount != 0) {
    releasePooledSegments();
    if (BytesInUse + Rounded <= Budget)
      return;
  }

  if (!HeadroomActive) {
    // Over budget for the first time: collecting may shed garbage that
    // BytesInUse still counts.
    if (!GCPaused && !InGC) {
      collect();
      if (BytesInUse + Rounded <= Budget)
        return;
    }
    // Genuinely at the limit. Grant the headroom slab and leave a trip
    // for the VM's next safe point; this allocation (and the error
    // handling it feeds) proceeds out of the headroom. The slab is
    // anchored at the usage observed right now, not at the budget:
    // when the grant happens while GC is paused (reader/compiler), the
    // uncollectable garbage may already put usage far past the budget,
    // and a budget-anchored slab would be spent before the first
    // allocation it was meant to cover.
    HeadroomActive = true;
    HeadroomBase = std::max(Budget, BytesInUse);
    notePendingTrip(TripKind::HeapLimit);
    return;
  }

  if (BytesInUse + Rounded <= HeadroomBase + LimitsPtr->HeapHeadroomBytes)
    return;
  // The headroom itself is nearly gone. One last collection can rescue a
  // program whose handler dropped references without a GC happening yet.
  if (!GCPaused && !InGC) {
    collect();
    if (BytesInUse + Rounded <= Budget ||
        (HeadroomActive &&
         BytesInUse + Rounded <= HeadroomBase + LimitsPtr->HeapHeadroomBytes))
      return;
  }
  throw ResourceExhausted{TripKind::HeapLimit,
                          "heap limit exceeded beyond reserved headroom"};
}

void Heap::injectHeapTrip() {
  HeadroomActive = true;
  HeadroomBase =
      std::max(LimitsPtr ? LimitsPtr->HeapBytes : uint64_t(0), BytesInUse);
  notePendingTrip(TripKind::HeapLimit);
}

void Heap::notePendingTrip(TripKind K) {
  if (PendingTrip == TripKind::None)
    PendingTrip = K;
  if (FuelPoke)
    *FuelPoke = 0;
}

void Heap::resetGovernance() {
  PendingTrip = TripKind::None;
  if (HeadroomActive || ReserveActive) {
    if (!GCPaused && !InGC)
      collect(); // Re-arms the grants below when usage is back under budget.
    // With no limit configured the grant is vestigial; always retire it.
    if (!LimitsPtr || LimitsPtr->HeapBytes == 0)
      HeadroomActive = false;
    if (!LimitsPtr || LimitsPtr->MaxLiveSegments == 0)
      ReserveActive = false;
  }
}

void *Heap::allocRaw(size_t Bytes, ObjKind Kind) {
  size_t Rounded = (Bytes + 15) & ~size_t(15);
  // Semantics-preserving fault site: force a collection at an arbitrary
  // allocation, shaking out missing-root bugs deterministically.
  if (CMK_FAULT(FaultsPtr, Gc) && !GCPaused && !InGC)
    collect();
  maybeCollect();
  // Budget check happens before any memory or accounting changes, so a
  // ResourceExhausted throw leaves the heap exactly as it was.
  checkHeapBudget(Rounded);

  void *Mem = nullptr;
  if (Rounded > MaxSmallBytes) {
    Mem = checkedMalloc(Rounded, "out of memory (large allocation)");
    LargeObjs.push_back(static_cast<ObjHeader *>(Mem));
    Stats.ReservedBytes += Rounded;
  } else {
    size_t Class = sizeClassOf(Rounded);
    if (FreeLists[Class]) {
      Mem = FreeLists[Class];
      FreeLists[Class] = static_cast<FreeChunk *>(Mem)->Next;
    } else {
      if (Blocks.empty() || Blocks.back().Used + Rounded > Blocks.back().Size) {
        if (!SpareBlocks.empty()) {
          Blocks.push_back(SpareBlocks.back());
          SpareBlocks.pop_back();
        } else {
          char *BlockMem = static_cast<char *>(
              checkedMalloc(BlockSize, "out of memory (block allocation)"));
          Blocks.push_back({BlockMem, 0, BlockSize});
          Stats.ReservedBytes += BlockSize;
        }
      }
      Block &B = Blocks.back();
      Mem = B.Mem + B.Used;
      B.Used += Rounded;
    }
  }

  std::memset(Mem, 0, Rounded);
  ObjHeader *O = static_cast<ObjHeader *>(Mem);
  O->Kind = Kind;
  O->SizeBytes = static_cast<uint32_t>(Rounded);
  BytesSinceGC += Rounded;
  Stats.BytesAllocated += Rounded;
  BytesInUse += Rounded;
  return Mem;
}

void *Heap::allocNursery(size_t Bytes, ObjKind Kind) {
  size_t Rounded = (Bytes + 15) & ~size_t(15);
  if (Rounded > MaxNurseryObjBytes)
    return allocRaw(Bytes, Kind);
  // Identical governance to allocRaw: the nursery changes where young
  // objects land, not what an allocation is allowed to do.
  if (CMK_FAULT(FaultsPtr, Gc) && !GCPaused && !InGC)
    collect();
  maybeCollect();
  checkHeapBudget(Rounded);

  if (NurseryBlocks.empty() ||
      NurseryBlocks.back().Used + Rounded > NurseryBlocks.back().Size) {
    // Prefer a spare rewound block over growing the nursery.
    size_t Empty = SIZE_MAX;
    for (size_t I = 0; I + 1 < NurseryBlocks.size(); ++I)
      if (NurseryBlocks[I].Used == 0) {
        Empty = I;
        break;
      }
    if (Empty != SIZE_MAX) {
      std::swap(NurseryBlocks[Empty], NurseryBlocks.back());
    } else {
      char *Mem = static_cast<char *>(
          checkedMalloc(NurseryBlockSize, "out of memory (nursery block)"));
      NurseryBlocks.push_back({Mem, 0, NurseryBlockSize});
      Stats.ReservedBytes += NurseryBlockSize;
    }
  }
  Block &B = NurseryBlocks.back();
  void *Mem = B.Mem + B.Used;
  B.Used += Rounded;

  std::memset(Mem, 0, Rounded);
  ObjHeader *O = static_cast<ObjHeader *>(Mem);
  O->Kind = Kind;
  O->SizeBytes = static_cast<uint32_t>(Rounded);
  BytesSinceGC += Rounded;
  Stats.BytesAllocated += Rounded;
  BytesInUse += Rounded;
  CMK_STAT_DETAIL(VmStatsPtr, NurseryAllocs);
  return Mem;
}

void Heap::maybeCollect() {
  if (BytesSinceGC >= GCThreshold && !GCPaused && !InGC)
    collect();
}

void Heap::traceValue(Value V) {
  if (!V.isObj())
    return;
  ObjHeader *O = V.obj();
  if (O->Flags & objflags::GCMark)
    return;
  O->Flags |= objflags::GCMark;
  MarkWorklist.push_back(O);
}

void Heap::traceObject(ObjHeader *O) {
  switch (O->Kind) {
  case ObjKind::Pair: {
    auto *P = reinterpret_cast<Pair *>(O);
    traceValue(P->Car);
    traceValue(P->Cdr);
    break;
  }
  case ObjKind::String:
  case ObjKind::Symbol:
  case ObjKind::Flonum:
    break;
  case ObjKind::Vector: {
    auto *V = reinterpret_cast<VectorObj *>(O);
    for (uint32_t I = 0; I < V->Len; ++I)
      traceValue(V->Elems[I]);
    break;
  }
  case ObjKind::Closure: {
    auto *C = reinterpret_cast<ClosureObj *>(O);
    traceValue(C->Code);
    for (uint32_t I = 0; I < C->NumFree; ++I)
      traceValue(C->Free[I]);
    break;
  }
  case ObjKind::Native:
    traceValue(reinterpret_cast<NativeObj *>(O)->Name);
    break;
  case ObjKind::Code: {
    auto *C = reinterpret_cast<CodeObj *>(O);
    traceValue(C->Name);
    Value *Consts = C->consts();
    for (uint32_t I = 0; I < C->NumConsts; ++I)
      traceValue(Consts[I]);
    break;
  }
  case ObjKind::StackSeg: {
    // All slots are zero-initialized at allocation, so slots above the live
    // area hold valid (possibly stale) values; tracing them conservatively
    // retains at most one dead frame's worth of garbage per segment.
    auto *S = reinterpret_cast<StackSegObj *>(O);
    // A pooled segment's slots are dead (poisoned in sanitized builds);
    // it can only be reached through a stale reference, never traced into.
    if (S->H.Flags & objflags::SegPooled)
      break;
    for (uint32_t I = 0; I < S->Capacity; ++I)
      traceValue(S->Slots[I]);
    break;
  }
  case ObjKind::Cont: {
    auto *K = reinterpret_cast<ContObj *>(O);
    // Paper section 6: the collector promotes opportunistic one-shot
    // continuations to full continuations, so the underflow handler will
    // not attempt to fuse stacks afterwards.
    if (K->shot() == ContShot::Opportunistic) {
      K->setShot(ContShot::Full);
      ++Stats.OneShotPromotions;
    }
    // A full record restores by copying from its segment at an arbitrary
    // later time, so the segment must never be recycled out from under it:
    // pin it (sticky; sweep still reclaims it once unreachable).
    if (K->Seg.isKind(ObjKind::StackSeg))
      K->Seg.obj()->Flags |= objflags::SegPinned;
    traceValue(K->Seg);
    traceValue(K->RetCode);
    traceValue(K->Marks);
    traceValue(K->Winders);
    traceValue(K->Next);
    traceValue(K->PromptTag);
    traceValue(K->MarkStackCopy);
    break;
  }
  case ObjKind::Box:
    traceValue(reinterpret_cast<BoxObj *>(O)->Val);
    break;
  case ObjKind::HashTable: {
    auto *T = reinterpret_cast<HashTableObj *>(O);
    traceValue(T->Keys);
    traceValue(T->Vals);
    break;
  }
  case ObjKind::Record: {
    auto *R = reinterpret_cast<RecordObj *>(O);
    traceValue(R->TypeTag);
    for (uint32_t I = 0; I < R->NumFields; ++I)
      traceValue(R->Fields[I]);
    break;
  }
  case ObjKind::MarkFrame: {
    auto *M = reinterpret_cast<MarkFrameObj *>(O);
    traceValue(M->CacheKey);
    traceValue(M->CacheVal);
    traceValue(M->CacheTail);
    for (uint32_t I = 0; I < 2 * M->NumEntries; ++I)
      traceValue(M->Entries[I]);
    break;
  }
  case ObjKind::Winder: {
    auto *W = reinterpret_cast<WinderObj *>(O);
    traceValue(W->Before);
    traceValue(W->After);
    traceValue(W->Marks);
    traceValue(W->Next);
    break;
  }
  case ObjKind::Port:
    traceValue(reinterpret_cast<PortObj *>(O)->Name);
    break;
  case ObjKind::CompositeCont: {
    auto *C = reinterpret_cast<CompositeContObj *>(O);
    traceValue(C->BoundaryMarks);
    traceValue(C->Winders);
    traceValue(C->BoundaryWinders);
    for (uint32_t I = 0; I < C->NumRecords; ++I)
      traceValue(C->Records[I]);
    break;
  }
  case ObjKind::Parameter: {
    auto *P = reinterpret_cast<ParameterObj *>(O);
    traceValue(P->Key);
    traceValue(P->Default);
    traceValue(P->Guard);
    traceValue(P->Name);
    break;
  }
  case ObjKind::Fiber: {
    auto *F = reinterpret_cast<FiberObj *>(O);
    traceValue(F->Thunk);
    traceValue(F->ArgsList);
    traceValue(F->Cont);
    traceValue(F->ResumeVal);
    traceValue(F->Result);
    traceValue(F->ErrKindSym);
    traceValue(F->Joiners);
    break;
  }
  }
}

void Heap::markFromWorklist() {
  while (!MarkWorklist.empty()) {
    ObjHeader *O = MarkWorklist.back();
    MarkWorklist.pop_back();
    traceObject(O);
  }
}

void Heap::sweep() {
  uint64_t LiveBytes = 0;
  for (size_t I = 0; I < NumSizeClasses; ++I)
    FreeLists[I] = nullptr;
  // Spares the last cycle did not take go back to the host allocator, so
  // the spare list never holds more than one cycle's worth of blocks.
  releaseSpareBlocks();

  // One pass per tenured block threads its dead and free chunks onto a
  // block-local list per size class (ClassMask says which are non-empty).
  // The lists reach FreeLists only if the block keeps a live object: an
  // all-dead block leaves the tenured set whole, rewound, except the bump
  // block, which allocRaw is still filling and is rewound in place.
  // Dead objects leave BytesInUse one by one as they are found, so
  // rewinding the block subtracts nothing more.
  static_assert(NumSizeClasses <= 64, "ClassMask holds one bit per class");
  FreeChunk *LocalHead[NumSizeClasses];
  FreeChunk *LocalTail[NumSizeClasses];
  size_t Kept = 0;
  for (size_t BI = 0; BI < Blocks.size(); ++BI) {
    Block &B = Blocks[BI];
    uint64_t ClassMask = 0;
    bool AnyLive = false;
    for (char *P = B.Mem; P < B.Mem + B.Used;) {
      ObjHeader *O = reinterpret_cast<ObjHeader *>(P);
      uint32_t Size = O->SizeBytes;
      P += Size;
      if (static_cast<uint8_t>(O->Kind) != FreeChunkKind) {
        if (O->Flags & (objflags::GCMark | objflags::Immortal)) {
          O->Flags &= ~objflags::GCMark;
          LiveBytes += Size;
          AnyLive = true;
          continue;
        }
        if (O->Kind == ObjKind::Port && O->Aux == 1)
          delete static_cast<std::string *>(
              reinterpret_cast<PortObj *>(O)->Stream);
        if (O->Kind == ObjKind::StackSeg && LiveSegments > 0)
          --LiveSegments;
        BytesInUse -= Size;
        O->Kind = static_cast<ObjKind>(FreeChunkKind);
      }
      auto *F = reinterpret_cast<FreeChunk *>(O);
      size_t Class = sizeClassOf(Size);
      if (ClassMask & (uint64_t(1) << Class)) {
        F->Next = LocalHead[Class];
      } else {
        F->Next = nullptr;
        LocalTail[Class] = F;
        ClassMask |= uint64_t(1) << Class;
      }
      LocalHead[Class] = F;
    }
    bool IsBumpBlock = BI + 1 == Blocks.size();
    if (!AnyLive && !IsBumpBlock) {
      // Rewound, a promoted nursery block goes back to the nursery, where
      // sweepNursery keeps it as a spare or frees it, and a 1 MiB block
      // becomes a spare for allocRaw's next bump block.
      B.Used = 0;
      if (B.Size == NurseryBlockSize)
        NurseryBlocks.push_back(B);
      else
        SpareBlocks.push_back(B);
      if (VmStatsPtr)
        ++VmStatsPtr->TenuredBlocksFreed;
      continue;
    }
    if (!AnyLive) {
      B.Used = 0;
    } else {
      for (uint64_t M = ClassMask; M; M &= M - 1) {
        size_t Class = static_cast<size_t>(std::countr_zero(M));
        LocalTail[Class]->Next = FreeLists[Class];
        FreeLists[Class] = LocalHead[Class];
      }
    }
    Blocks[Kept++] = B;
  }
  Blocks.resize(Kept);

  sweepNursery(LiveBytes);

  std::vector<ObjHeader *> SurvivingLarge;
  SurvivingLarge.reserve(LargeObjs.size());
  for (ObjHeader *O : LargeObjs) {
    // Pooled segments first: a stale reference (e.g. a consumed record
    // still reachable from a captured chain) may have marked one, but it
    // is free memory, not a live object — keep it pooled either way.
    if (O->Kind == ObjKind::StackSeg && (O->Flags & objflags::SegPooled)) {
      O->Flags &= ~objflags::GCMark;
      SurvivingLarge.push_back(O);
      continue;
    }
    if ((O->Flags & objflags::GCMark) || (O->Flags & objflags::Immortal)) {
      O->Flags &= ~objflags::GCMark;
      LiveBytes += O->SizeBytes;
      SurvivingLarge.push_back(O);
    } else if (O->Kind == ObjKind::StackSeg &&
               pushPooledSeg(reinterpret_cast<StackSegObj *>(O))) {
      // Dead segment routed into the recycling pool: it stays in LargeObjs
      // and in BytesInUse, but is no longer a live segment.
      if (LiveSegments > 0)
        --LiveSegments;
      SurvivingLarge.push_back(O);
    } else {
      if (O->Kind == ObjKind::Port && O->Aux == 1)
        delete static_cast<std::string *>(
            reinterpret_cast<PortObj *>(O)->Stream);
      if (O->Kind == ObjKind::StackSeg && LiveSegments > 0)
        --LiveSegments;
      BytesInUse -= O->SizeBytes;
      Stats.ReservedBytes -= O->SizeBytes;
      std::free(O);
    }
  }
  LargeObjs.swap(SurvivingLarge);
  Stats.LiveBytesAfterLastGC = LiveBytes;
}

void Heap::sweepNursery(uint64_t &LiveBytes) {
  // Keep as many empty blocks as this cycle filled: the next cycle is
  // likely to fill as many again, and a block kept here is one that needs
  // no malloc, no page faults and no free.
  size_t Filled = 0;
  for (const Block &B : NurseryBlocks)
    Filled += B.Used != 0;
  size_t MaxSpares = std::max(Filled, MaxSpareNurseryBlocks);
  std::vector<Block> Kept;
  size_t EmptyKept = 0;
  for (Block &B : NurseryBlocks) {
    bool AnyLive = false;
    for (char *P = B.Mem; P < B.Mem + B.Used;) {
      ObjHeader *O = reinterpret_cast<ObjHeader *>(P);
      if (static_cast<uint8_t>(O->Kind) != FreeChunkKind &&
          (O->Flags & (objflags::GCMark | objflags::Immortal))) {
        AnyLive = true;
        break;
      }
      P += O->SizeBytes;
    }
    if (!AnyLive) {
      // Everything in the block died young: rewind it wholesale. Keep a
      // few empty blocks hot for the next mutator burst, free the rest.
      BytesInUse -= B.Used;
      if (B.Used != 0 && VmStatsPtr)
        ++VmStatsPtr->NurseryResets;
      B.Used = 0;
      if (EmptyKept < MaxSpares) {
        Kept.push_back(B);
        ++EmptyKept;
      } else {
        std::free(B.Mem);
        Stats.ReservedBytes -= B.Size;
      }
      continue;
    }
    // Survivors: tenure the whole block into the mark-sweep block set,
    // threading its dead objects onto the size-class free lists exactly as
    // the tenured sweep does for a block that keeps a live object.
    for (char *P = B.Mem; P < B.Mem + B.Used;) {
      ObjHeader *O = reinterpret_cast<ObjHeader *>(P);
      uint32_t Size = O->SizeBytes;
      if (static_cast<uint8_t>(O->Kind) != FreeChunkKind &&
          (O->Flags & (objflags::GCMark | objflags::Immortal))) {
        O->Flags &= ~objflags::GCMark;
        LiveBytes += Size;
      } else if (static_cast<uint8_t>(O->Kind) != FreeChunkKind) {
        if (O->Kind == ObjKind::Port && O->Aux == 1)
          delete static_cast<std::string *>(
              reinterpret_cast<PortObj *>(O)->Stream);
        BytesInUse -= Size;
        O->Kind = static_cast<ObjKind>(FreeChunkKind);
        auto *F = reinterpret_cast<FreeChunk *>(O);
        F->Next = FreeLists[sizeClassOf(Size)];
        FreeLists[sizeClassOf(Size)] = F;
      }
      P += Size;
    }
    // Below the bump block, so allocRaw keeps filling its own 1 MiB block
    // and a bump block rewound by this sweep is not stranded mid-vector.
    Blocks.insert(Blocks.empty() ? Blocks.end() : Blocks.end() - 1, B);
    if (VmStatsPtr)
      ++VmStatsPtr->NurseryPromotions;
  }
  NurseryBlocks.swap(Kept);
}

void Heap::collect() {
  InGC = true;
  ++Stats.Collections;
  uint64_t StartNs = nowNanos();
  CMK_TRACE_EV_P(TraceBufPtr, GcBegin);

  for (GCRootSource *Src : RootSources)
    Src->traceRoots(*this);
  for (GCRoot *R : TempRoots)
    traceValue(R->get());
  for (RootedValues *RV : TempVectors)
    for (Value V : RV->Vals)
      traceValue(V);
  // Symbols are immortal, but trace the table so bucket entries stay valid
  // even if immortality rules change.
  markFromWorklist();
  sweep();

  BytesSinceGC = 0;
  GCThreshold = std::max<uint64_t>(InitialGCThreshold,
                                   Stats.LiveBytesAfterLastGC * 2);
  // Re-arm governance: once a collection brings usage back under budget,
  // retire the emergency grants so the next exhaustion trips again.
  if (HeadroomActive && (!LimitsPtr || LimitsPtr->HeapBytes == 0 ||
                         BytesInUse <= LimitsPtr->HeapBytes))
    HeadroomActive = false;
  if (ReserveActive && (!LimitsPtr || LimitsPtr->MaxLiveSegments == 0 ||
                        LiveSegments < LimitsPtr->MaxLiveSegments))
    ReserveActive = false;
  uint64_t PauseNs = nowNanos() - StartNs;
  Stats.GCPauseNsTotal += PauseNs;
  Stats.GCPauseNsMax = std::max(Stats.GCPauseNsMax, PauseNs);
  CMK_TRACE_EV_P(TraceBufPtr, GcEnd);
  InGC = false;
}

// --- Allocation entry points -------------------------------------------------

// The ParamRoots pattern: each allocator stores its Value arguments into
// GCRoots before allocRaw may collect. A fixed GCRoot per argument is cheap
// (one vector push/pop) and keeps the discipline local and auditable.

Value Heap::makePair(Value Car, Value Cdr) {
  GCRoot R1(*this, Car), R2(*this, Cdr);
  auto *P = static_cast<Pair *>(allocNursery(sizeof(Pair), ObjKind::Pair));
  P->Car = R1.get();
  P->Cdr = R2.get();
  return Value::fromObj(&P->H);
}

Value Heap::makeString(const char *Data, uint32_t Len) {
  auto *S = static_cast<StringObj *>(
      allocRaw(sizeof(StringObj) + Len, ObjKind::String));
  S->Len = Len;
  std::memcpy(S->Data, Data, Len);
  return Value::fromObj(&S->H);
}

Value Heap::makeUninitString(uint32_t Len) {
  auto *S = static_cast<StringObj *>(
      allocRaw(sizeof(StringObj) + Len, ObjKind::String));
  S->Len = Len;
  return Value::fromObj(&S->H);
}

Value Heap::makeVector(uint32_t Len, Value Fill) {
  GCRoot R1(*this, Fill);
  auto *V = static_cast<VectorObj *>(
      allocRaw(sizeof(VectorObj) + sizeof(Value) * Len, ObjKind::Vector));
  V->Len = Len;
  for (uint32_t I = 0; I < Len; ++I)
    V->Elems[I] = R1.get();
  return Value::fromObj(&V->H);
}

Value Heap::makeFlonum(double D) {
  auto *F =
      static_cast<FlonumObj *>(allocRaw(sizeof(FlonumObj), ObjKind::Flonum));
  F->Val = D;
  return Value::fromObj(&F->H);
}

Value Heap::makeBox(Value V) {
  GCRoot R1(*this, V);
  auto *B = static_cast<BoxObj *>(allocRaw(sizeof(BoxObj), ObjKind::Box));
  B->Val = R1.get();
  return Value::fromObj(&B->H);
}

Value Heap::makeClosure(Value Code, uint32_t NumFree) {
  GCRoot R1(*this, Code);
  auto *C = static_cast<ClosureObj *>(allocRaw(
      sizeof(ClosureObj) + sizeof(Value) * NumFree, ObjKind::Closure));
  C->NumFree = NumFree;
  C->Code = R1.get();
  for (uint32_t I = 0; I < NumFree; ++I)
    C->Free[I] = Value::undefined();
  return Value::fromObj(&C->H);
}

Value Heap::makeNative(NativeFn Fn, Value Name, int32_t MinArgs,
                       int32_t MaxArgs) {
  GCRoot R1(*this, Name);
  auto *N =
      static_cast<NativeObj *>(allocRaw(sizeof(NativeObj), ObjKind::Native));
  N->Fn = Fn;
  N->Name = R1.get();
  N->MinArgs = MinArgs;
  N->MaxArgs = MaxArgs;
  return Value::fromObj(&N->H);
}

Value Heap::makeCode(uint32_t NumArgs, uint32_t NumLocals, uint32_t FrameSize,
                     uint32_t Flags, Value Name,
                     const std::vector<Value> &Consts,
                     const std::vector<uint8_t> &Instrs) {
  GCRoot R1(*this, Name);
  RootedValues RootedConsts(*this);
  for (Value V : Consts)
    RootedConsts.push(V);
  size_t Bytes = sizeof(CodeObj) + sizeof(Value) * Consts.size() +
                 Instrs.size();
  auto *C = static_cast<CodeObj *>(allocRaw(Bytes, ObjKind::Code));
  C->NumArgs = NumArgs;
  C->NumLocals = NumLocals;
  C->FrameSize = FrameSize;
  C->NumConsts = static_cast<uint32_t>(Consts.size());
  C->NumInstrs = static_cast<uint32_t>(Instrs.size());
  C->Flags = Flags;
  C->Name = R1.get();
  for (size_t I = 0; I < Consts.size(); ++I)
    C->consts()[I] = RootedConsts[I];
  std::memcpy(C->instrs(), Instrs.data(), Instrs.size());
  return Value::fromObj(&C->H);
}

Value Heap::makeStackSeg(uint32_t CapacitySlots) {
  // Segment budget = the continuation-depth limit: deep recursion keeps
  // every overflowed segment live through the underflow-record chain, so
  // counting live segments bounds stack growth without caring how the
  // depth was reached (plain recursion, captured continuations, ...).
  if (LimitsPtr && LimitsPtr->MaxLiveSegments != 0 &&
      LiveSegments >= LimitsPtr->MaxLiveSegments) {
    if (!ReserveActive) {
      // Dead segments may still be counted; collect before tripping.
      if (!GCPaused && !InGC)
        collect();
      if (LiveSegments >= LimitsPtr->MaxLiveSegments) {
        // At the limit: grant the reserve so the overflow in progress
        // completes and the limit exception has stack to run on.
        ReserveActive = true;
        notePendingTrip(TripKind::StackLimit);
      }
    } else if (LiveSegments >=
               LimitsPtr->MaxLiveSegments + LimitsPtr->ReserveSegments) {
      throw ResourceExhausted{TripKind::StackLimit,
                              "stack segment limit exceeded beyond reserve"};
    }
  }
  size_t Bytes = sizeof(StackSegObj) + sizeof(Value) * CapacitySlots;
  size_t Rounded = (Bytes + 15) & ~size_t(15);

  // Pool first: a recycled chunk reuses memory that is already committed
  // and counted, so it bypasses the allocation governance entirely.
  if (StackSegObj *S = popPooledSeg(Rounded, CapacitySlots)) {
    ++LiveSegments;
    if (VmStatsPtr)
      ++VmStatsPtr->SegmentRecycles;
    CMK_TRACE_EV_P(TraceBufPtr, SegmentRecycle, CapacitySlots);
    return Value::fromObj(&S->H);
  }

  // Fresh allocation. Segments always take the individually-malloc'd
  // LargeObjs path (never the small bump blocks) so every chunk can later
  // be pooled and handed back independently of its neighbours. Same
  // governance order as allocRaw: fault site, collection, budget — all
  // before any memory or accounting changes.
  if (CMK_FAULT(FaultsPtr, Gc) && !GCPaused && !InGC)
    collect();
  maybeCollect();
  checkHeapBudget(Rounded);
  void *Mem = checkedMalloc(Rounded, "out of memory (stack segment)");
  LargeObjs.push_back(static_cast<ObjHeader *>(Mem));
  Stats.ReservedBytes += Rounded;
  std::memset(Mem, 0, Rounded);
  auto *S = static_cast<StackSegObj *>(Mem);
  S->H.Kind = ObjKind::StackSeg;
  S->H.SizeBytes = static_cast<uint32_t>(Rounded);
  BytesSinceGC += Rounded;
  Stats.BytesAllocated += Rounded;
  BytesInUse += Rounded;
  S->Capacity = CapacitySlots;
  ++LiveSegments;
  if (VmStatsPtr) {
    ++VmStatsPtr->SegmentAllocs;
    VmStatsPtr->SegmentSlotsAllocated += CapacitySlots;
  }
  CMK_TRACE_EV_P(TraceBufPtr, SegmentAlloc, CapacitySlots);
  return Value::fromObj(&S->H);
}

bool Heap::pushPooledSeg(StackSegObj *S) {
  if (!RecyclingEnabled)
    return false;
  if (PooledSegBytes + S->H.SizeBytes > SegPoolByteCap)
    return false;
  size_t Class = segClassOf(S->H.SizeBytes);
  if (Class >= NumSegClasses)
    return false;
  S->H.Flags = objflags::SegPooled; // Clears mark/pin too.
  S->RecordRefs = 0;
  S->Slots[0] = Value::fromRaw(reinterpret_cast<uint64_t>(SegPool[Class]));
  SegPool[Class] = S;
  PooledSegBytes += S->H.SizeBytes;
  ++PooledSegCount;
  poisonPooledSeg(S);
  return true;
}

StackSegObj *Heap::popPooledSeg(size_t Rounded, uint32_t CapacitySlots) {
  if (PooledSegCount == 0)
    return nullptr;
  // Chunks in class K have true size in [2^K, 2^(K+1)), so the request's
  // own floor class holds both fitting and too-small chunks: a short
  // first-fit scan catches the steady-state case where the segment vacated
  // a moment ago is re-requested at the same (non-power-of-two) size.
  // Every chunk in the classes above fits; the class cap bounds internal
  // waste at ~16x. The header, Capacity/RecordRefs, and the intrusive
  // next pointer in Slots[0] stay unpoisoned while pooled, so the scan
  // never reads poisoned memory.
  size_t First = segClassOf(Rounded);
  size_t Last = std::min(First + 3, NumSegClasses - 1);
  for (size_t Class = First; Class <= Last; ++Class) {
    StackSegObj *Prev = nullptr;
    auto *S = static_cast<StackSegObj *>(SegPool[Class]);
    for (int Scan = 0; S && Scan < 8; ++Scan) {
      auto *Next = reinterpret_cast<StackSegObj *>(S->Slots[0].raw());
      if (S->H.SizeBytes >= Rounded) {
        if (Prev)
          Prev->Slots[0] = Value::fromRaw(reinterpret_cast<uint64_t>(Next));
        else
          SegPool[Class] = Next;
        PooledSegBytes -= S->H.SizeBytes;
        --PooledSegCount;
        unpoisonPooledSeg(S);
        // SizeBytes keeps the chunk's true size (sweep accounting and the
        // pool classes depend on it); Capacity shrinks to the request.
        S->H.Flags = 0;
        S->RecordRefs = 0;
        S->Capacity = CapacitySlots;
        std::memset(S->Slots, 0, sizeof(Value) * CapacitySlots);
        return S;
      }
      Prev = S;
      S = Next;
    }
  }
  return nullptr;
}

void Heap::recycleStackSeg(Value SegV) {
  if (!RecyclingEnabled || InGC)
    return;
  StackSegObj *S = asStackSeg(SegV);
  if (S->H.Flags & (objflags::SegPinned | objflags::SegPooled))
    return;
  if (S->RecordRefs != 0)
    return;
  if (pushPooledSeg(S) && LiveSegments > 0)
    --LiveSegments;
}

void Heap::releasePooledSegments() {
  if (PooledSegCount == 0)
    return;
  for (size_t I = 0; I < NumSegClasses; ++I)
    SegPool[I] = nullptr;
  std::vector<ObjHeader *> Kept;
  Kept.reserve(LargeObjs.size());
  for (ObjHeader *O : LargeObjs) {
    if (O->Kind == ObjKind::StackSeg && (O->Flags & objflags::SegPooled)) {
      unpoisonPooledSeg(reinterpret_cast<StackSegObj *>(O));
      BytesInUse -= O->SizeBytes;
      Stats.ReservedBytes -= O->SizeBytes;
      std::free(O);
    } else {
      Kept.push_back(O);
    }
  }
  LargeObjs.swap(Kept);
  PooledSegBytes = 0;
  PooledSegCount = 0;
}

void Heap::releaseSpareBlocks() {
  for (Block &B : SpareBlocks) {
    std::free(B.Mem);
    Stats.ReservedBytes -= B.Size;
  }
  SpareBlocks.clear();
}

void Heap::setSegmentRecycling(bool On) {
  if (!On)
    releasePooledSegments();
  RecyclingEnabled = On;
}

Value Heap::makeCont() {
  auto *K = static_cast<ContObj *>(allocRaw(sizeof(ContObj), ObjKind::Cont));
  K->Seg = Value::nil();
  K->RetCode = Value::underflowSentinel();
  K->RetPc = Value::fixnum(0);
  K->Marks = Value::nil();
  K->Winders = Value::nil();
  K->Next = Value::nil();
  K->PromptTag = Value::False();
  K->MarkStackCopy = Value::False();
  return Value::fromObj(&K->H);
}

Value Heap::makeFiber(Value Thunk, Value ArgsList, uint64_t Id) {
  GCRoot R1(*this, Thunk), R2(*this, ArgsList);
  auto *F =
      static_cast<FiberObj *>(allocRaw(sizeof(FiberObj), ObjKind::Fiber));
  F->Id = Id;
  F->DueNs = 0;
  F->RunNs = 0;
  F->FaultsInjected = 0;
  F->BudgetNs = 0;
  F->JobDeadlineNs = 0;
  F->Thunk = R1.get();
  F->ArgsList = R2.get();
  F->Cont = Value::undefined();
  F->ResumeVal = Value::voidValue();
  F->Result = Value::voidValue();
  F->ErrKindSym = Value::False();
  F->Joiners = Value::nil();
  F->setState(FiberState::Fresh);
  return Value::fromObj(&F->H);
}

Value Heap::makeHashTable(bool EqualBased) {
  auto *T = static_cast<HashTableObj *>(
      allocRaw(sizeof(HashTableObj), ObjKind::HashTable));
  T->H.Aux = EqualBased ? 1 : 0;
  T->Count = 0;
  T->CapMask = 0;
  T->Keys = Value::nil();
  T->Vals = Value::nil();
  return Value::fromObj(&T->H);
}

Value Heap::makeRecord(Value TypeTag, uint32_t NumFields, Value Fill) {
  GCRoot R1(*this, TypeTag), R2(*this, Fill);
  auto *R = static_cast<RecordObj *>(allocRaw(
      sizeof(RecordObj) + sizeof(Value) * NumFields, ObjKind::Record));
  R->NumFields = NumFields;
  R->TypeTag = R1.get();
  for (uint32_t I = 0; I < NumFields; ++I)
    R->Fields[I] = R2.get();
  return Value::fromObj(&R->H);
}

Value Heap::makeMarkFrame(uint32_t NumEntries) {
  auto *M = static_cast<MarkFrameObj *>(allocNursery(
      sizeof(MarkFrameObj) + sizeof(Value) * 2 * NumEntries,
      ObjKind::MarkFrame));
  M->NumEntries = NumEntries;
  M->CacheKey = Value::undefined();
  M->CacheVal = Value::undefined();
  M->CacheTail = Value::undefined();
  for (uint32_t I = 0; I < 2 * NumEntries; ++I)
    M->Entries[I] = Value::undefined();
  return Value::fromObj(&M->H);
}

Value Heap::makeWinder(Value Before, Value After, Value Marks, Value Next) {
  GCRoot R1(*this, Before), R2(*this, After), R3(*this, Marks),
      R4(*this, Next);
  auto *W =
      static_cast<WinderObj *>(allocRaw(sizeof(WinderObj), ObjKind::Winder));
  W->Before = R1.get();
  W->After = R2.get();
  W->Marks = R3.get();
  W->Next = R4.get();
  return Value::fromObj(&W->H);
}

Value Heap::makeStdioPort(void *Stream, Value Name) {
  GCRoot R1(*this, Name);
  auto *P = static_cast<PortObj *>(allocRaw(sizeof(PortObj), ObjKind::Port));
  P->H.Aux = 0;
  P->Stream = Stream;
  P->Name = R1.get();
  return Value::fromObj(&P->H);
}

Value Heap::makeStringPort(Value Name) {
  GCRoot R1(*this, Name);
  auto *P = static_cast<PortObj *>(allocRaw(sizeof(PortObj), ObjKind::Port));
  P->H.Aux = 1;
  P->Stream = new std::string();
  P->Name = R1.get();
  return Value::fromObj(&P->H);
}

Value Heap::makeCompositeCont(uint32_t NumRecords) {
  auto *C = static_cast<CompositeContObj *>(
      allocRaw(sizeof(CompositeContObj) + sizeof(Value) * NumRecords,
               ObjKind::CompositeCont));
  C->NumRecords = NumRecords;
  C->BoundaryMarks = Value::nil();
  C->Winders = Value::nil();
  C->BoundaryWinders = Value::nil();
  for (uint32_t I = 0; I < NumRecords; ++I)
    C->Records[I] = Value::undefined();
  return Value::fromObj(&C->H);
}

Value Heap::makeParameter(Value Key, Value Default, Value Guard, Value Name) {
  GCRoot R1(*this, Key), R2(*this, Default), R3(*this, Guard), R4(*this, Name);
  auto *P = static_cast<ParameterObj *>(
      allocRaw(sizeof(ParameterObj), ObjKind::Parameter));
  P->Key = R1.get();
  P->Default = R2.get();
  P->Guard = R3.get();
  P->Name = R4.get();
  return Value::fromObj(&P->H);
}

Value Heap::intern(const char *Name, uint32_t Len) {
  uint64_t Hash = fnv1a(Name, Len);
  auto &Bucket = SymBuckets[Hash & (NumSymBuckets - 1)];
  for (const SymTableEntry &E : Bucket) {
    if (E.Hash != Hash)
      continue;
    SymbolObj *S = asSymbol(E.Sym);
    if (S->Len == Len && std::memcmp(S->Data, Name, Len) == 0)
      return E.Sym;
  }
  auto *S = static_cast<SymbolObj *>(
      allocRaw(sizeof(SymbolObj) + Len, ObjKind::Symbol));
  S->H.Flags |= objflags::Immortal;
  S->Hash = Hash;
  S->Len = Len;
  std::memcpy(S->Data, Name, Len);
  Value Sym = Value::fromObj(&S->H);
  Bucket.push_back({Hash, Sym});
  return Sym;
}

Value Heap::gensym(const char *Prefix) {
  char Buf[64];
  int N = std::snprintf(Buf, sizeof(Buf), "%s~%llu", Prefix,
                        static_cast<unsigned long long>(GensymCounter++));
  // Uninterned: allocate a symbol object without a table entry, so it is
  // eq? only to itself.
  auto *S = static_cast<SymbolObj *>(
      allocRaw(sizeof(SymbolObj) + N, ObjKind::Symbol));
  S->H.Flags |= objflags::Immortal;
  S->Hash = fnv1a(Buf, N);
  S->Len = N;
  std::memcpy(S->Data, Buf, N);
  return Value::fromObj(&S->H);
}
