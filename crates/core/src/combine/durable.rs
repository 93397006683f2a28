//! Crash-durable detectable combining (DESIGN.md §16).
//!
//! Combining is the natural persistence seam: instead of every thread
//! flushing every operation, the one elected combiner persists one
//! frozen batch with O(1) flushes — the PBComb / detectable-combining
//! approach. This module adds that seam to the generic engine:
//!
//! * **Persistent heap** — all durable state (redo log, intent cells)
//!   lives in a [`PersistentHeap`](sec_reclaim::PersistentHeap):
//!   a file-backed `MAP_SHARED` mmap whose retired stores survive the
//!   process dying (including `SIGKILL`), or an in-memory `Volatile`
//!   arena with identical code paths for tests and CI.
//! * **Intent cells** — before announcing, a handle writes an *intent*
//!   (its per-handle op sequence number + op descriptor) to its cell
//!   and only then joins a batch. On recovery, comparing the cell's
//!   sequence number against the log tells the announcer whether its
//!   in-flight op executed — every op is *detectable*.
//! * **Per-shard redo log** — the combiner applies the frozen batch to
//!   the in-memory structure and appends one record (op descriptors +
//!   results) per batch, fences, *commits* the record with a single
//!   release store, and only then lets the engine publish results.
//!   A record whose commit word is unset is a torn record: its ops
//!   never happened. Records are packed back to back, each as long as
//!   its entry count needs.
//! * **Solo path** — an op whose shard has no batch forming and whose
//!   apply lock is free applies and logs itself under that lock
//!   ([`DurableCore::try_solo`]): a one-entry record, no batch.
//! * **One driver** — the engine's `run_durable` writes the intent and
//!   runs the op (solo or batched); a family contributes only
//!   `CombineOp::apply_durable`, the per-request apply both paths call.
//! * **Recovery** — [`DurableCore::open`] scans every shard, orders
//!   committed records by their global sequence number, verifies that
//!   each handle's logged ops form a gap-free prefix (zero
//!   double-applies), classifies every pending intent, and hands the
//!   ordered op list to the family for replay into a fresh structure.
//!
//! Durability fine print: `MAP_SHARED` stores live in the kernel page
//! cache, which survives the *process* (kill−9 semantics — exactly
//! what the fault-injection harness exercises). Surviving *power
//! failure* additionally requires `msync`, which [`SyncMode::Sync`]
//! performs once per committed record.

use core::any::TypeId;
use core::mem;
use core::sync::atomic::{AtomicU64, Ordering};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use sec_reclaim::{Guard, Handle as ReclaimHandle, PersistentHeap};

use super::{wait_ptr, CombineBatch, CombineEngine, CombineOp, Lane, Role};

/// Magic word ("SECDUR01" in ASCII) committed last when a heap is
/// initialised; recovery refuses heaps without it.
const MAGIC: u64 = 0x5345_4344_5552_3031;
/// On-heap layout version: 2 packs variable-length records back to
/// back (1 gave every record the maximum size); recovery refuses any
/// other version as [`DurableError::BadMagic`].
const VERSION: u64 = 2;
/// Header size in words (generous; unused words stay zero).
const HDR_WORDS: usize = 16;
/// Header word indices.
const H_MAGIC: usize = 0;
const H_FAMILY: usize = 1;
const H_MAX_HANDLES: usize = 2;
const H_SHARDS: usize = 3;
const H_RECORD_CAP: usize = 4;
const H_ENTRIES_CAP: usize = 5;
const H_FAMILY_PARAM: usize = 6;
const H_GLOBAL_SEQ: usize = 7;
const H_VERSION: usize = 8;
/// Words per intent cell: op_seq, opcode, operand, operand2, checksum.
const INTENT_WORDS: usize = 5;
/// Words per log entry: meta (handle | opcode | result tag), op_seq,
/// operand, operand2, result.
const ENTRY_WORDS: usize = 5;
/// Record header words: commit (global seq + 1; 0 = torn), n_ops,
/// checksum. A record is `REC_HDR_WORDS + n_ops * ENTRY_WORDS` words.
const REC_HDR_WORDS: usize = 3;

/// Operation codes recorded in the redo log, one namespace across all
/// four durable families. Public so the fault-injection harness can
/// fold a recovered log over its own sequential model.
pub mod opcode {
    /// `SecStack::push(operand)`.
    pub const PUSH: u8 = 1;
    /// `SecStack::pop()`.
    pub const POP: u8 = 2;
    /// `SecQueue::enqueue(operand)`.
    pub const ENQUEUE: u8 = 3;
    /// `SecQueue::dequeue()`.
    pub const DEQUEUE: u8 = 4;
    /// `SecCounter::fetch_add(operand)`.
    pub const ADD: u8 = 5;
    /// `SecMap::get(operand)`.
    pub const MAP_GET: u8 = 6;
    /// `SecMap::insert(operand, operand2)`.
    pub const MAP_INSERT: u8 = 7;
    /// `SecMap::remove(operand)`.
    pub const MAP_REMOVE: u8 = 8;
}

/// Result tags stored in an entry's meta word.
const RTAG_UNIT: u8 = 0;
const RTAG_EMPTY: u8 = 1;
const RTAG_VALUE: u8 = 2;

/// The durable family stored in the heap header; recovery refuses to
/// replay a stack log into a queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Family {
    Stack = 1,
    Queue = 2,
    Counter = 3,
    Map = 4,
}

impl Family {
    fn from_u64(v: u64) -> Option<Self> {
        match v {
            1 => Some(Family::Stack),
            2 => Some(Family::Queue),
            3 => Some(Family::Counter),
            4 => Some(Family::Map),
            _ => None,
        }
    }
}

/// Where the durable heap lives.
#[derive(Clone, Debug)]
pub enum DurableMode {
    /// An anonymous in-memory heap: full durable code paths (intents,
    /// redo log, recovery) with no file I/O. Recover by keeping the
    /// heap alive across structure drops ([`DurableMode::Heap`]).
    Volatile,
    /// A file-backed mmap at this path. Survives kill−9 as-is;
    /// combine with [`SyncMode::Sync`] for power-failure durability.
    File(PathBuf),
    /// An existing heap, shared by reference — how a Volatile-mode
    /// structure is recovered after a drop, and how tests inject
    /// pre-corrupted heaps.
    Heap(Arc<PersistentHeap>),
}

/// When the redo log is flushed (`msync`) to its backing file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// Never. Stores still survive process death (page cache), but
    /// not power loss. The default, and the only mode the kill−9
    /// harness needs.
    None,
    /// `msync(MS_SYNC)` the record range once per committed record —
    /// the O(1)-flushes-per-batch discipline from the PBComb line of
    /// work. No-op on volatile heaps.
    Sync,
}

/// How many log records a combined batch produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogGranularity {
    /// One record per frozen batch (chunked only when a batch exceeds
    /// the record's entry capacity) — the combining win.
    PerBatch,
    /// One record per operation — the flush-per-op strawman that
    /// `durable_bench` measures the batch discipline against.
    PerOp,
}

/// Configuration for a crash-durable structure: where the heap lives
/// and how the per-shard redo log is shaped.
///
/// ```
/// use sec_core::DurablePolicy;
/// let p = DurablePolicy::volatile().shards(2).record_capacity(1024);
/// ```
#[derive(Clone, Debug)]
pub struct DurablePolicy {
    /// Heap backing.
    pub mode: DurableMode,
    /// Number of durable combining shards (dedicated aggregators).
    pub shards: usize,
    /// Log records per shard; the log is not circular, so this bounds
    /// the structure's total batch count between recoveries.
    pub record_capacity: usize,
    /// Operation entries per record; batches larger than this are
    /// split across consecutive records.
    pub batch_entries: usize,
    /// Flush discipline (see [`SyncMode`]).
    pub sync: SyncMode,
    /// Records per batch or per op (see [`LogGranularity`]).
    pub granularity: LogGranularity,
}

impl DurablePolicy {
    fn with_mode(mode: DurableMode) -> Self {
        Self {
            mode,
            shards: 1,
            record_capacity: 4096,
            batch_entries: 64,
            sync: SyncMode::None,
            granularity: LogGranularity::PerBatch,
        }
    }

    /// An in-memory policy (tests/CI; no file I/O).
    pub fn volatile() -> Self {
        Self::with_mode(DurableMode::Volatile)
    }

    /// A file-backed policy at `path`.
    pub fn file(path: impl Into<PathBuf>) -> Self {
        Self::with_mode(DurableMode::File(path.into()))
    }

    /// A policy over an existing heap (Volatile-mode recovery).
    pub fn heap(heap: Arc<PersistentHeap>) -> Self {
        Self::with_mode(DurableMode::Heap(heap))
    }

    /// Sets the durable shard count (builder style).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Sets the per-shard record capacity (builder style).
    pub fn record_capacity(mut self, n: usize) -> Self {
        self.record_capacity = n.max(1);
        self
    }

    /// Sets the per-record entry capacity (builder style).
    pub fn batch_entries(mut self, n: usize) -> Self {
        self.batch_entries = n.max(1);
        self
    }

    /// Sets the flush discipline (builder style).
    pub fn sync(mut self, s: SyncMode) -> Self {
        self.sync = s;
        self
    }

    /// Sets the log granularity (builder style).
    pub fn granularity(mut self, g: LogGranularity) -> Self {
        self.granularity = g;
        self
    }
}

/// Errors from durable construction and recovery.
#[derive(Debug)]
pub enum DurableError {
    /// Heap file I/O failed.
    Io(std::io::Error),
    /// A [`DurableMode::Heap`] heap is smaller than the layout needs.
    HeapTooSmall {
        /// Words the layout requires.
        needed: usize,
        /// Words the heap has.
        have: usize,
    },
    /// The heap carries no valid magic/version — not a durable heap,
    /// or one from an incompatible layout.
    BadMagic,
    /// The heap was written by a different family (e.g. recovering a
    /// queue from a stack's heap).
    WrongFamily,
    /// Recovering over [`DurableMode::Volatile`] is meaningless (the
    /// heap died with the process); use [`DurableMode::Heap`] or
    /// [`DurableMode::File`].
    NothingToRecover,
    /// The log violates an invariant that commit ordering should make
    /// impossible (per-handle gaps, duplicate sequence numbers,
    /// replay/result divergence).
    Corrupt(String),
}

impl core::fmt::Display for DurableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable heap I/O: {e}"),
            DurableError::HeapTooSmall { needed, have } => {
                write!(
                    f,
                    "durable heap too small: need {needed} words, have {have}"
                )
            }
            DurableError::BadMagic => write!(f, "not a durable SEC heap (bad magic/version)"),
            DurableError::WrongFamily => write!(f, "durable heap belongs to a different family"),
            DurableError::NothingToRecover => {
                write!(
                    f,
                    "volatile mode has no heap to recover; pass DurableMode::Heap"
                )
            }
            DurableError::Corrupt(s) => write!(f, "durable log corrupt: {s}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

/// The result a logged (or recovered) operation produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// The op returns nothing (push, enqueue).
    Unit,
    /// The op returned "absent" (pop/dequeue on empty, get/remove miss).
    Empty,
    /// The op returned this value (popped value, previous counter
    /// value, previous/looked-up map value).
    Value(u64),
}

impl OpResult {
    fn to_words(self) -> (u8, u64) {
        match self {
            OpResult::Unit => (RTAG_UNIT, 0),
            OpResult::Empty => (RTAG_EMPTY, 0),
            OpResult::Value(v) => (RTAG_VALUE, v),
        }
    }

    fn from_words(rtag: u8, result: u64) -> Option<Self> {
        match rtag {
            RTAG_UNIT => Some(OpResult::Unit),
            RTAG_EMPTY => Some(OpResult::Empty),
            RTAG_VALUE => Some(OpResult::Value(result)),
            _ => None,
        }
    }
}

/// One committed operation recovered from the redo log, in global
/// application order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoggedOp {
    /// The announcing handle's id (collector slot).
    pub handle: u32,
    /// The handle's per-op sequence number (1-based, gap-free).
    pub op_seq: u64,
    /// One of the [`opcode`] constants.
    pub opcode: u8,
    /// First operand (value/key/delta), 0 when unused.
    pub operand: u64,
    /// Second operand (map insert value), 0 when unused.
    pub operand2: u64,
    /// The result the op produced when it originally executed.
    pub result: OpResult,
}

/// What recovery determined about one handle's in-flight operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PendingOutcome {
    /// The handle had no announced-but-unacknowledged op at the crash.
    None,
    /// The announced op executed; its logged result is here — the
    /// caller must *not* re-issue it.
    Executed {
        /// The executed op's per-handle sequence number.
        op_seq: u64,
        /// The result it produced.
        result: OpResult,
    },
    /// The announced op never executed (no committed record carries
    /// it); re-issuing it is safe and cannot double-apply.
    NeverExecuted {
        /// The never-executed op's per-handle sequence number.
        op_seq: u64,
    },
    /// The crash hit the middle of the intent write itself; the op
    /// was never announced to a batch, so it never executed.
    TornIntent,
}

/// Per-handle recovery verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandleRecovery {
    /// Number of this handle's ops found committed in the log.
    pub executed: u64,
    /// Classification of the handle's last announced op.
    pub pending: PendingOutcome,
}

/// Everything [`recover()`](crate::SecStack::recover) learned from the
/// heap: the ordered op log (already replayed into the returned
/// structure), per-handle detectability verdicts, and scan statistics.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Committed records found across all shards.
    pub committed_records: usize,
    /// Torn records found past a shard's last committed record (a
    /// payload whose commit word never landed) — ops that never
    /// happened. Recovery zeroes them.
    pub torn_records: usize,
    /// Per-handle verdicts, indexed by handle id. A handle's id is its
    /// reclamation slot, which a later registration reuses once the
    /// handle drops; the reusing handle's ops count under the same id.
    pub handles: Vec<HandleRecovery>,
    /// Every committed op in global application order; replaying these
    /// sequentially reproduces the recovered structure exactly.
    pub ops: Vec<LoggedOp>,
}

impl RecoveryReport {
    /// Total committed operations.
    pub fn replayed_ops(&self) -> usize {
        self.ops.len()
    }
}

/// Snapshot of a durable structure's logging counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct DurableStats {
    /// Records committed to the redo log.
    pub records: u64,
    /// Operation entries across those records.
    pub entries: u64,
    /// `msync` calls issued ([`SyncMode::Sync`] only).
    pub msyncs: u64,
}

/// A durable op request, announced by value from the caller's stack
/// frame (cast to the engine's node type, exactly like the bulk-op
/// requests). The combiner fills `rtag`/`result`; the engine's
/// release publish makes them visible to the announcer.
#[repr(C)]
pub(crate) struct DurableReq {
    pub handle: u32,
    pub opcode: u8,
    pub rtag: u8,
    pub op_seq: u64,
    pub operand: u64,
    pub operand2: u64,
    pub result: u64,
}

impl DurableReq {
    pub(crate) fn new(handle: usize, op_seq: u64, opcode: u8, operand: u64, operand2: u64) -> Self {
        Self {
            handle: handle as u32,
            opcode,
            rtag: RTAG_UNIT,
            op_seq,
            operand,
            operand2,
            result: 0,
        }
    }

    /// The combiner's write-back: records the op's result for both the
    /// log entry and the announcer.
    pub(crate) fn set_result(&mut self, r: OpResult) {
        let (rtag, result) = r.to_words();
        self.rtag = rtag;
        self.result = result;
    }

    pub(crate) fn take_result(&self) -> OpResult {
        OpResult::from_words(self.rtag, self.result).expect("combiner left result tag unset")
    }
}

/// Fault-injection points for the kill−9 harness. The hooks are armed
/// through the environment (`SEC_CRASH_POINT`, `SEC_CRASH_AFTER`) and
/// deliver `SIGKILL` to the *current process* on the N-th hit — they
/// exist so a child workload process can crash itself at a seeded
/// protocol point; they are never armed in normal operation.
pub mod fault {
    use core::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    /// A protocol point at which the process can be made to die.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    #[repr(u8)]
    pub enum FaultPoint {
        /// Between applying individual ops of a frozen batch.
        MidCombine = 1,
        /// After the record payload is written, before its commit
        /// word: the record must recover as torn.
        PostLog = 2,
        /// After the commit word (log is durable), before the engine
        /// publishes results: ops recover as executed, announcers as
        /// pending-executed.
        PostCommit = 3,
        /// While waiters are consuming published results.
        MidPublish = 4,
        /// Between an intent cell's field stores and its checksum:
        /// the cell must recover as torn (op never announced).
        IntentWrite = 5,
        /// Per committed record during recovery's scan — proves
        /// `recover()` is re-entrant (kill mid-recovery, recover
        /// again).
        RecoverScan = 6,
    }

    impl FaultPoint {
        /// Parses the `SEC_CRASH_POINT` value (numeric).
        pub fn from_u8(v: u8) -> Option<Self> {
            match v {
                1 => Some(FaultPoint::MidCombine),
                2 => Some(FaultPoint::PostLog),
                3 => Some(FaultPoint::PostCommit),
                4 => Some(FaultPoint::MidPublish),
                5 => Some(FaultPoint::IntentWrite),
                6 => Some(FaultPoint::RecoverScan),
                _ => None,
            }
        }
    }

    struct Arm {
        point: u8,
        remaining: AtomicU64,
    }

    static ARM: OnceLock<Option<Arm>> = OnceLock::new();

    fn arm() -> &'static Option<Arm> {
        ARM.get_or_init(|| {
            let point: u8 = std::env::var("SEC_CRASH_POINT").ok()?.parse().ok()?;
            FaultPoint::from_u8(point)?;
            let after: u64 = std::env::var("SEC_CRASH_AFTER")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
            Some(Arm {
                point,
                remaining: AtomicU64::new(after.max(1)),
            })
        })
    }

    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
        fn getpid() -> i32;
    }

    /// The hook the durable code paths call; kills the process with
    /// `SIGKILL` when the armed point's countdown reaches zero.
    #[inline]
    pub(crate) fn hit(p: FaultPoint) {
        if let Some(a) = arm() {
            if a.point == p as u8 && a.remaining.fetch_sub(1, Ordering::Relaxed) == 1 {
                // SAFETY: kill(getpid(), SIGKILL) has no memory-safety
                // preconditions; it simply never returns control here.
                unsafe {
                    kill(getpid(), 9);
                }
                // SIGKILL cannot be blocked; unreachable in practice.
                std::process::abort();
            }
        }
    }
}

use fault::FaultPoint;

/// Converts a (u64-monomorphic) durable payload into its log word.
/// Durable constructors exist only for `u64` element types; generic
/// code paths route through this checked transmute.
pub(crate) fn to_word<T: 'static>(v: T) -> u64 {
    assert_eq!(
        TypeId::of::<T>(),
        TypeId::of::<u64>(),
        "durable SEC structures carry u64 payloads"
    );
    // SAFETY: T is u64 (checked above); sizes and bit validity match.
    let w = unsafe { mem::transmute_copy::<T, u64>(&v) };
    mem::forget(v);
    w
}

/// By-reference twin of [`to_word`] for call sites that only borrow
/// their payload (the map's `get(&K)`/`remove(&K)`). Sound because the
/// checked type is `u64`, which is `Copy`.
pub(crate) fn word_of<T: 'static>(v: &T) -> u64 {
    assert_eq!(
        TypeId::of::<T>(),
        TypeId::of::<u64>(),
        "durable SEC structures carry u64 payloads"
    );
    // SAFETY: T is u64 (checked above); u64 is Copy, so reading the
    // bits out of a borrow duplicates nothing that owns anything.
    unsafe { mem::transmute_copy::<T, u64>(v) }
}

/// Inverse of [`to_word`].
pub(crate) fn from_word<T: 'static>(w: u64) -> T {
    assert_eq!(
        TypeId::of::<T>(),
        TypeId::of::<u64>(),
        "durable SEC structures carry u64 payloads"
    );
    // SAFETY: T is u64 (checked above).
    unsafe { mem::transmute_copy::<u64, T>(&w) }
}

fn mix(h: u64, v: u64) -> u64 {
    let h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 29)
}

fn intent_checksum(handle: u64, seq: u64, opcode: u64, a: u64, b: u64) -> u64 {
    let mut h = 0x5EC0_0001;
    for v in [handle, seq, opcode, a, b] {
        h = mix(h, v);
    }
    h
}

struct StatsInner {
    records: AtomicU64,
    entries: AtomicU64,
    msyncs: AtomicU64,
}

/// A record being filled at its shard's tail (apply lock held).
struct OpenRecord {
    /// Heap word index of the record's commit word.
    off: usize,
    seq: u64,
    n_ops: usize,
    filled: usize,
    /// Running checksum over seq, n_ops and the entries written.
    sum: u64,
}

/// The shared durable state a family's op struct owns when built with
/// a [`DurablePolicy`]: the heap, the layout geometry, the apply lock
/// that serialises structure mutation with log append, and the
/// per-handle resume sequence numbers recovery produced.
pub(crate) struct DurableCore {
    heap: Arc<PersistentHeap>,
    family: Family,
    max_handles: usize,
    shards: usize,
    record_cap: usize,
    entries_cap: usize,
    sync: SyncMode,
    granularity: LogGranularity,
    /// Serialises apply+log across all shards: log order is exactly
    /// structure-application order, which is what makes sequential
    /// replay reproduce the recovered structure.
    apply_lock: Mutex<()>,
    /// Per-handle next op sequence number (1 when fresh; last+1 after
    /// recovery; advanced by every intent write so a re-registered
    /// collector slot resumes where its predecessor left off).
    start_seq: Box<[AtomicU64]>,
    stats: StatsInner,
}

impl DurableCore {
    // ---- layout ---------------------------------------------------
    //
    // header | intent cells | per shard: tail word, record area. A
    // shard's record area holds `record_cap` maximum-size records;
    // records are packed back to back from its start, and the tail
    // word holds the word offset (within the area) of the next one.

    fn record_words(n_ops: usize) -> usize {
        REC_HDR_WORDS + n_ops * ENTRY_WORDS
    }

    fn area_words(record_cap: usize, entries_cap: usize) -> usize {
        record_cap * Self::record_words(entries_cap)
    }

    fn intent_off(&self, handle: usize) -> usize {
        HDR_WORDS + handle * INTENT_WORDS
    }

    fn tail_off(&self, shard: usize) -> usize {
        let shard_words = 1 + Self::area_words(self.record_cap, self.entries_cap);
        HDR_WORDS + self.max_handles * INTENT_WORDS + shard * shard_words
    }

    fn area_off(&self, shard: usize) -> usize {
        self.tail_off(shard) + 1
    }

    fn words_needed(
        max_handles: usize,
        shards: usize,
        record_cap: usize,
        entries_cap: usize,
    ) -> usize {
        HDR_WORDS
            + max_handles * INTENT_WORDS
            + shards * (1 + Self::area_words(record_cap, entries_cap))
    }

    #[inline]
    fn w(&self, idx: usize) -> &AtomicU64 {
        self.heap.word(idx)
    }

    // ---- construction ---------------------------------------------

    /// Initialises a fresh durable heap for `family` and returns the
    /// core. The heap (created or supplied) must be zeroed.
    pub(crate) fn create(
        policy: &DurablePolicy,
        family: Family,
        family_param: u64,
        max_handles: usize,
    ) -> Result<Self, DurableError> {
        let shards = policy.shards.max(1);
        let record_cap = policy.record_capacity.max(1);
        let entries_cap = policy.batch_entries.max(1);
        let needed = Self::words_needed(max_handles, shards, record_cap, entries_cap);
        let heap = match &policy.mode {
            DurableMode::Volatile => PersistentHeap::volatile(needed),
            DurableMode::File(path) => PersistentHeap::create_file(path, needed)?,
            DurableMode::Heap(h) => {
                if h.words() < needed {
                    return Err(DurableError::HeapTooSmall {
                        needed,
                        have: h.words(),
                    });
                }
                Arc::clone(h)
            }
        };
        let core = Self {
            heap,
            family,
            max_handles,
            shards,
            record_cap,
            entries_cap,
            sync: policy.sync,
            granularity: policy.granularity,
            apply_lock: Mutex::new(()),
            start_seq: (0..max_handles).map(|_| AtomicU64::new(1)).collect(),
            stats: StatsInner {
                records: AtomicU64::new(0),
                entries: AtomicU64::new(0),
                msyncs: AtomicU64::new(0),
            },
        };
        core.w(H_FAMILY).store(family as u64, Ordering::Relaxed);
        core.w(H_MAX_HANDLES)
            .store(max_handles as u64, Ordering::Relaxed);
        core.w(H_SHARDS).store(shards as u64, Ordering::Relaxed);
        core.w(H_RECORD_CAP)
            .store(record_cap as u64, Ordering::Relaxed);
        core.w(H_ENTRIES_CAP)
            .store(entries_cap as u64, Ordering::Relaxed);
        core.w(H_FAMILY_PARAM)
            .store(family_param, Ordering::Relaxed);
        core.w(H_GLOBAL_SEQ).store(0, Ordering::Relaxed);
        core.w(H_VERSION).store(VERSION, Ordering::Relaxed);
        // The magic commits the header: a crash before this store
        // leaves a heap that recovery correctly refuses.
        core.w(H_MAGIC).store(MAGIC, Ordering::Release);
        core.heap.msync(0, HDR_WORDS).ok();
        Ok(core)
    }

    /// Opens an existing durable heap, scans and orders the committed
    /// log, classifies every handle's pending intent, and normalises
    /// the allocator words (idempotently — `open` can itself be killed
    /// and re-run). The returned report's `ops` are ready for the
    /// family to replay.
    pub(crate) fn open(
        policy: &DurablePolicy,
        family: Family,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let heap = match &policy.mode {
            DurableMode::Volatile => return Err(DurableError::NothingToRecover),
            DurableMode::File(path) => PersistentHeap::open_file(path)?,
            DurableMode::Heap(h) => Arc::clone(h),
        };
        if heap.words() < HDR_WORDS
            || heap.word(H_MAGIC).load(Ordering::Acquire) != MAGIC
            || heap.word(H_VERSION).load(Ordering::Relaxed) != VERSION
        {
            return Err(DurableError::BadMagic);
        }
        if Family::from_u64(heap.word(H_FAMILY).load(Ordering::Relaxed)) != Some(family) {
            return Err(DurableError::WrongFamily);
        }
        let max_handles = heap.word(H_MAX_HANDLES).load(Ordering::Relaxed) as usize;
        let shards = heap.word(H_SHARDS).load(Ordering::Relaxed) as usize;
        let record_cap = heap.word(H_RECORD_CAP).load(Ordering::Relaxed) as usize;
        let entries_cap = heap.word(H_ENTRIES_CAP).load(Ordering::Relaxed) as usize;
        let needed = Self::words_needed(max_handles, shards, record_cap, entries_cap);
        if max_handles == 0 || shards == 0 || heap.words() < needed {
            return Err(DurableError::Corrupt(format!(
                "implausible header geometry ({max_handles} handles, {shards} shards)"
            )));
        }
        let mut core = Self {
            heap,
            family,
            max_handles,
            shards,
            record_cap,
            entries_cap,
            sync: policy.sync,
            granularity: policy.granularity,
            apply_lock: Mutex::new(()),
            start_seq: (0..max_handles).map(|_| AtomicU64::new(1)).collect(),
            stats: StatsInner {
                records: AtomicU64::new(0),
                entries: AtomicU64::new(0),
                msyncs: AtomicU64::new(0),
            },
        };
        let report = core.scan_and_classify()?;
        Ok((core, report))
    }

    /// Family parameter stored at creation (bucket count for maps).
    pub(crate) fn family_param(&self) -> u64 {
        self.w(H_FAMILY_PARAM).load(Ordering::Relaxed)
    }

    /// Stored handle capacity (drives the recovered `SecConfig`).
    pub(crate) fn max_handles(&self) -> usize {
        self.max_handles
    }

    /// Durable shard count (drives the recovered aggregator layout).
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// The backing heap (shared so Volatile-mode callers can recover
    /// after dropping the structure).
    pub(crate) fn heap(&self) -> Arc<PersistentHeap> {
        Arc::clone(&self.heap)
    }

    /// Logging counters.
    pub(crate) fn stats(&self) -> DurableStats {
        DurableStats {
            records: self.stats.records.load(Ordering::Relaxed),
            entries: self.stats.entries.load(Ordering::Relaxed),
            msyncs: self.stats.msyncs.load(Ordering::Relaxed),
        }
    }

    /// Fixed thread→shard mapping (block partition, like
    /// `SecConfig::aggregator_for` under a fixed policy).
    pub(crate) fn shard_of(&self, tid: usize) -> usize {
        (tid * self.shards / self.max_handles).min(self.shards - 1)
    }

    /// The per-handle op sequence number announcing should resume
    /// from (1 fresh, last committed + 1 after recovery).
    pub(crate) fn start_seq(&self, handle: usize) -> u64 {
        self.start_seq[handle].load(Ordering::Relaxed)
    }

    // ---- hot path --------------------------------------------------

    /// Persists a handle's intent before it announces: on recovery the
    /// cell tells the handle whether this op executed. Field stores
    /// first, checksum last (release) — a crash in between leaves a
    /// checksum mismatch, classified as [`PendingOutcome::TornIntent`].
    pub(crate) fn write_intent(&self, handle: usize, seq: u64, opcode: u8, a: u64, b: u64) {
        // Keep the in-memory resume point current: a handle dropped
        // and re-registered on the same collector slot must continue
        // this sequence, not restart it.
        self.start_seq[handle].store(seq + 1, Ordering::Relaxed);
        let off = self.intent_off(handle);
        self.w(off).store(seq, Ordering::Relaxed);
        self.w(off + 1).store(opcode as u64, Ordering::Relaxed);
        self.w(off + 2).store(a, Ordering::Relaxed);
        self.w(off + 3).store(b, Ordering::Relaxed);
        fault::hit(FaultPoint::IntentWrite);
        let sum = intent_checksum(handle as u64, seq, opcode as u64, a, b);
        self.w(off + 4).store(sum, Ordering::Release);
    }

    /// The durable combiner body: under the apply lock, applies each
    /// request to the in-memory structure via `apply` and logs it (one
    /// record per batch or per op, by policy), committing before it
    /// returns — the engine publishes results only after this returns,
    /// so a published result is always a logged result.
    ///
    /// # Safety
    /// `reqs` must yield live `DurableReq`s owned by announcers
    /// currently parked in this batch (the engine's slot discipline).
    pub(crate) unsafe fn combine_batch(
        &self,
        shard: usize,
        reqs: impl ExactSizeIterator<Item = *mut DurableReq>,
        apply: impl FnMut(&mut DurableReq),
    ) {
        let _g = self.apply_lock.lock().unwrap();
        // Safety: forwarded caller contract.
        unsafe { self.apply_and_log(shard, reqs, apply) };
    }

    /// The solo path (DESIGN.md §16): when the policy flushes nothing
    /// ([`SyncMode::None`]) and the apply lock is free, applies `req`
    /// and commits it as a one-entry record, returning `true`. The
    /// engine tries it only when the shard's current batch is idle:
    /// no other op of the shard is there to share a record with.
    /// Returns `false`, touching nothing, when either check fails; the
    /// caller then announces the same request. Under [`SyncMode::Sync`] every record costs
    /// an `msync`, which only a batch amortizes, so that mode never
    /// goes solo.
    pub(crate) fn try_solo(
        &self,
        shard: usize,
        req: &mut DurableReq,
        apply: impl FnMut(&mut DurableReq),
    ) -> bool {
        if !self.solo_enabled() {
            return false;
        }
        let Ok(_g) = self.apply_lock.try_lock() else {
            return false;
        };
        // Safety: `req` is a live exclusive borrow for the whole call.
        unsafe { self.apply_and_log(shard, core::iter::once(req as *mut DurableReq), apply) };
        true
    }

    /// Whether ops may take [`DurableCore::try_solo`] at all.
    pub(crate) fn solo_enabled(&self) -> bool {
        self.sync == SyncMode::None
    }

    /// The apply/append code both paths share (apply lock held):
    /// applies each request, writing its entry straight into the open
    /// record, and commits a record whenever it fills.
    ///
    /// # Safety
    /// Every pointer `reqs` yields must be live and unaliased.
    unsafe fn apply_and_log(
        &self,
        shard: usize,
        reqs: impl ExactSizeIterator<Item = *mut DurableReq>,
        mut apply: impl FnMut(&mut DurableReq),
    ) {
        let per_record = match self.granularity {
            LogGranularity::PerOp => 1,
            LogGranularity::PerBatch => self.entries_cap,
        };
        let mut left = reqs.len();
        let mut open: Option<OpenRecord> = None;
        for r in reqs {
            // Safety: caller contract.
            let req = unsafe { &mut *r };
            fault::hit(FaultPoint::MidCombine);
            apply(req);
            let rec = open.get_or_insert_with(|| self.open_record(shard, left.min(per_record)));
            self.write_entry(rec, req);
            left -= 1;
            if rec.filled == rec.n_ops {
                self.commit(shard, rec);
                open = None;
            }
        }
        debug_assert!(open.is_none(), "records are sized to their entries");
    }

    fn entry_words(req: &DurableReq) -> [u64; ENTRY_WORDS] {
        let meta = req.handle as u64 | ((req.opcode as u64) << 32) | ((req.rtag as u64) << 40);
        [meta, req.op_seq, req.operand, req.operand2, req.result]
    }

    /// Starts an `n_ops`-entry record at `shard`'s tail: takes its
    /// global sequence number and writes its entry count.
    fn open_record(&self, shard: usize, n_ops: usize) -> OpenRecord {
        let tail = self.w(self.tail_off(shard)).load(Ordering::Relaxed) as usize;
        assert!(
            tail + Self::record_words(n_ops) <= Self::area_words(self.record_cap, self.entries_cap),
            "durable log full: shard {shard} has no room for another record within its \
             {} records; raise DurablePolicy::record_capacity (the log is not circular)",
            self.record_cap
        );
        let seq = self.w(H_GLOBAL_SEQ).fetch_add(1, Ordering::Relaxed);
        let off = self.area_off(shard) + tail;
        self.w(off + 1).store(n_ops as u64, Ordering::Relaxed);
        OpenRecord {
            off,
            seq,
            n_ops,
            filled: 0,
            sum: mix(mix(0x5EC0_0002, seq), n_ops as u64),
        }
    }

    fn write_entry(&self, rec: &mut OpenRecord, req: &DurableReq) {
        let base = rec.off + REC_HDR_WORDS + rec.filled * ENTRY_WORDS;
        for (j, word) in Self::entry_words(req).into_iter().enumerate() {
            self.w(base + j).store(word, Ordering::Relaxed);
            rec.sum = mix(rec.sum, word);
        }
        rec.filled += 1;
    }

    /// Commits a full record with a release store of its global
    /// sequence number and advances the shard's tail past it.
    fn commit(&self, shard: usize, rec: &OpenRecord) {
        let words = Self::record_words(rec.n_ops);
        self.w(rec.off + 2).store(rec.sum, Ordering::Relaxed);
        fault::hit(FaultPoint::PostLog);
        // The commit point: everything above is ordered before this
        // release store, so a visible commit word implies a complete,
        // checksummed payload.
        self.w(rec.off).store(rec.seq + 1, Ordering::Release);
        let tail = rec.off + words - self.area_off(shard);
        self.w(self.tail_off(shard))
            .store(tail as u64, Ordering::Relaxed);
        if self.sync == SyncMode::Sync {
            self.heap.msync(rec.off, words).ok();
            self.heap.msync(H_GLOBAL_SEQ, 1).ok();
            self.heap.msync(self.tail_off(shard), 1).ok();
            self.stats.msyncs.fetch_add(1, Ordering::Relaxed);
        }
        fault::hit(FaultPoint::PostCommit);
        self.stats.records.fetch_add(1, Ordering::Relaxed);
        self.stats
            .entries
            .fetch_add(rec.n_ops as u64, Ordering::Relaxed);
    }

    // ---- recovery --------------------------------------------------

    fn scan_and_classify(&mut self) -> Result<RecoveryReport, DurableError> {
        let mut committed: Vec<(u64, Vec<LoggedOp>)> = Vec::new();
        let mut torn = 0usize;
        let mut max_seq: u64 = 0;
        let area_words = Self::area_words(self.record_cap, self.entries_cap);
        for shard in 0..self.shards {
            let area = self.area_off(shard);
            // Records are appended back to back under the apply lock,
            // so the first uncommitted header ends the shard's log.
            let mut pos = 0usize;
            while pos + REC_HDR_WORDS <= area_words {
                let off = area + pos;
                let commit = self.w(off).load(Ordering::Acquire);
                if commit == 0 {
                    break;
                }
                let seq = commit - 1;
                let n = self.w(off + 1).load(Ordering::Relaxed) as usize;
                let stored_sum = self.w(off + 2).load(Ordering::Relaxed);
                if n == 0 || n > self.entries_cap || pos + Self::record_words(n) > area_words {
                    return Err(DurableError::Corrupt(format!(
                        "committed record at {shard}/{pos} has implausible n_ops {n}"
                    )));
                }
                let mut sum = mix(mix(0x5EC0_0002, seq), n as u64);
                let mut ops = Vec::with_capacity(n);
                for i in 0..n {
                    let mut words = [0u64; ENTRY_WORDS];
                    for (j, w) in words.iter_mut().enumerate() {
                        *w = self
                            .w(off + REC_HDR_WORDS + i * ENTRY_WORDS + j)
                            .load(Ordering::Relaxed);
                        sum = mix(sum, *w);
                    }
                    let [meta, op_seq, operand, operand2, result] = words;
                    let rtag = ((meta >> 40) & 0xff) as u8;
                    let result = OpResult::from_words(rtag, result).ok_or_else(|| {
                        DurableError::Corrupt(format!(
                            "record at {shard}/{pos} entry {i} has bad result tag {rtag}"
                        ))
                    })?;
                    ops.push(LoggedOp {
                        handle: (meta & 0xffff_ffff) as u32,
                        op_seq,
                        opcode: ((meta >> 32) & 0xff) as u8,
                        operand,
                        operand2,
                        result,
                    });
                }
                if sum != stored_sum {
                    // A commit word over a mismatched payload cannot
                    // come from an ordered crash; refuse the heap.
                    return Err(DurableError::Corrupt(format!(
                        "committed record at {shard}/{pos} fails its checksum"
                    )));
                }
                fault::hit(FaultPoint::RecoverScan);
                max_seq = max_seq.max(seq + 1);
                committed.push((seq, ops));
                pos += Self::record_words(n);
            }
            // A crash mid-append leaves at most one torn record past
            // the last committed one. Zero it: the next append may be
            // shorter, and a stale word where a later record's commit
            // word lands would read as a committed record. Only
            // nonzero words are rewritten, so a clean tail dirties no
            // page; a re-run after a kill here zeroes the rest.
            let residue =
                area + pos..area + (pos + Self::record_words(self.entries_cap)).min(area_words);
            let mut dirty = false;
            for i in residue.clone() {
                if self.w(i).load(Ordering::Relaxed) != 0 {
                    self.w(i).store(0, Ordering::Relaxed);
                    dirty = true;
                }
            }
            if dirty {
                torn += 1;
                if self.sync == SyncMode::Sync {
                    self.heap.msync(residue.start, residue.len()).ok();
                }
            }
            // Normalise the tail allocator (idempotent).
            self.w(self.tail_off(shard))
                .store(pos as u64, Ordering::Relaxed);
        }
        committed.sort_by_key(|&(seq, _)| seq);
        for pair in committed.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(DurableError::Corrupt(format!(
                    "duplicate global sequence number {}",
                    pair[0].0
                )));
            }
        }
        // Normalise the global sequence allocator (idempotent).
        self.w(H_GLOBAL_SEQ).store(max_seq, Ordering::Relaxed);
        let committed_records = committed.len();
        let ops: Vec<LoggedOp> = committed.into_iter().flat_map(|(_, v)| v).collect();

        // Per-handle detectability: committed op_seqs must form the
        // gap-free prefix 1..=n in replay order (anything else would
        // mean a lost or double-applied op).
        let mut last = vec![0u64; self.max_handles];
        let mut last_result = vec![OpResult::Unit; self.max_handles];
        for op in &ops {
            let h = op.handle as usize;
            if h >= self.max_handles {
                return Err(DurableError::Corrupt(format!(
                    "logged handle {h} out of range"
                )));
            }
            if op.op_seq != last[h] + 1 {
                return Err(DurableError::Corrupt(format!(
                    "handle {h}: op_seq {} after {} (gap or double-apply)",
                    op.op_seq, last[h]
                )));
            }
            last[h] = op.op_seq;
            last_result[h] = op.result;
        }
        let mut handles = Vec::with_capacity(self.max_handles);
        for h in 0..self.max_handles {
            let off = self.intent_off(h);
            let seq = self.w(off).load(Ordering::Relaxed);
            let opcode = self.w(off + 1).load(Ordering::Relaxed);
            let a = self.w(off + 2).load(Ordering::Relaxed);
            let b = self.w(off + 3).load(Ordering::Relaxed);
            let sum = self.w(off + 4).load(Ordering::Acquire);
            let pending = if seq == 0 {
                PendingOutcome::None
            } else if sum != intent_checksum(h as u64, seq, opcode, a, b) {
                PendingOutcome::TornIntent
            } else if seq == last[h] {
                PendingOutcome::Executed {
                    op_seq: seq,
                    result: last_result[h],
                }
            } else if seq == last[h] + 1 {
                PendingOutcome::NeverExecuted { op_seq: seq }
            } else {
                return Err(DurableError::Corrupt(format!(
                    "handle {h}: intent seq {seq} vs last committed {}",
                    last[h]
                )));
            };
            self.start_seq[h].store(last[h] + 1, Ordering::Relaxed);
            handles.push(HandleRecovery {
                executed: last[h],
                pending,
            });
        }
        Ok(RecoveryReport {
            committed_records,
            torn_records: torn,
            handles,
            ops,
        })
    }
}

impl core::fmt::Debug for DurableCore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DurableCore")
            .field("family", &self.family)
            .field("shards", &self.shards)
            .field("record_cap", &self.record_cap)
            .field("entries_cap", &self.entries_cap)
            .field("heap", &self.heap)
            .finish()
    }
}

/// The durable half of the engine: one driver for every family's
/// durable ops, the solo attempt, and the batched combiner of the
/// durable shard aggregators. A family contributes only
/// [`CombineOp::durable`] and [`CombineOp::apply_durable`].
impl<O: CombineOp> CombineEngine<O> {
    /// Runs one durable op for the handle registered as `reclaim`:
    /// persists its intent, then runs the request on the handle's
    /// shard aggregator — solo when the shard is idle (see
    /// [`DurableCore::try_solo`]), batched otherwise — and returns
    /// the logged result.
    pub(crate) fn run_durable(
        &self,
        reclaim: &ReclaimHandle<'_>,
        opcode: u8,
        operand: u64,
        operand2: u64,
    ) -> OpResult {
        let d = self.op.durable().expect("durable route");
        let tid = reclaim.slot();
        let seq = d.start_seq(tid);
        d.write_intent(tid, seq, opcode, operand, operand2);
        let mut req = DurableReq::new(tid, seq, opcode, operand, operand2);
        let node = (&mut req as *mut DurableReq).cast::<O::Node>();
        self.run(
            Lane::At(self.dur_base + d.shard_of(tid)),
            Role::Remove,
            node,
            reclaim,
        );
        // Committed, caller not told yet — on either path.
        fault::hit(FaultPoint::MidPublish);
        req.take_result()
    }

    /// Whether aggregator `agg_idx` is a durable shard whose ops may
    /// try [`CombineEngine::durable_solo`].
    #[inline]
    pub(super) fn durable_solo_at(&self, agg_idx: usize) -> bool {
        agg_idx >= self.dur_base && self.op.durable().is_some_and(DurableCore::solo_enabled)
    }

    /// The solo attempt of a durable request announced on durable
    /// shard `agg_idx` (the engine has checked its batch is idle).
    pub(super) fn durable_solo(
        &self,
        agg_idx: usize,
        node: *mut O::Node,
        guard: &Guard<'_, '_>,
    ) -> Option<Option<O::Value>> {
        let d = self.op.durable()?;
        // Safety: durable shards carry only `DurableReq`s, and this
        // one lives in the calling `run_durable` frame, unannounced.
        let req = unsafe { &mut *node.cast::<DurableReq>() };
        d.try_solo(agg_idx - self.dur_base, req, |r| {
            self.op.apply_durable(r, guard)
        })
        .then_some(None)
    }

    /// The combiner of a durable shard's frozen batch: walks the
    /// frozen slots and hands each request to the core, which applies
    /// and logs it under the apply lock.
    pub(super) fn combine_durable(
        &self,
        batch: &CombineBatch<O::Node>,
        my_seq: usize,
        agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) {
        let d = self
            .op
            .durable()
            .expect("durable shard on a durable structure");
        let wait = self.config.wait;
        let reqs = batch.slots[my_seq..batch.frozen_cut(Role::Remove)]
            .iter()
            .map(|s| wait_ptr(s, wait).cast::<DurableReq>());
        // Safety: every pointer was announced into this frozen batch
        // and its owner blocks until `applied`.
        unsafe {
            d.combine_batch(agg_idx - self.dur_base, reqs, |r| {
                self.op.apply_durable(r, guard)
            })
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HANDLES: usize = 2;

    /// A small two-shard geometry over a fresh Volatile heap.
    fn policy(heap: &Arc<PersistentHeap>) -> DurablePolicy {
        DurablePolicy::heap(Arc::clone(heap))
            .shards(2)
            .record_capacity(8)
            .batch_entries(4)
    }

    fn fresh() -> (Arc<PersistentHeap>, DurableCore) {
        let heap = PersistentHeap::volatile(DurableCore::words_needed(HANDLES, 2, 8, 4));
        let core = DurableCore::create(&policy(&heap), Family::Counter, 0, HANDLES).unwrap();
        (heap, core)
    }

    fn add(handle: usize, op_seq: u64, delta: u64) -> DurableReq {
        DurableReq::new(handle, op_seq, opcode::ADD, delta, 0)
    }

    /// Applies and logs `reqs` on `shard` as one batch.
    fn log(core: &DurableCore, shard: usize, reqs: &mut [DurableReq]) {
        let ptrs = reqs.iter_mut().map(|r| r as *mut DurableReq);
        // Safety: the pointers come from a live exclusive borrow.
        unsafe {
            core.combine_batch(shard, ptrs, |r| {
                r.set_result(OpResult::Value(r.operand));
            })
        };
    }

    fn open(heap: &Arc<PersistentHeap>) -> Result<RecoveryReport, DurableError> {
        DurableCore::open(&policy(heap), Family::Counter).map(|(_, r)| r)
    }

    fn logged(report: &RecoveryReport) -> Vec<(u32, u64, u64)> {
        report
            .ops
            .iter()
            .map(|op| (op.handle, op.op_seq, op.operand))
            .collect()
    }

    /// Writes a torn record at `shard`'s tail: header and entries
    /// land, the checksum and commit word never do.
    fn tear(core: &DurableCore, shard: usize, reqs: &[DurableReq]) {
        let mut rec = core.open_record(shard, reqs.len());
        for r in reqs {
            core.write_entry(&mut rec, r);
        }
    }

    #[test]
    fn a_zeroed_or_first_version_heap_is_bad_magic() {
        let heap = PersistentHeap::volatile(DurableCore::words_needed(HANDLES, 2, 8, 4));
        assert!(matches!(open(&heap), Err(DurableError::BadMagic)));
        let (heap, _core) = fresh();
        heap.word(H_VERSION).store(1, Ordering::Relaxed);
        assert!(matches!(open(&heap), Err(DurableError::BadMagic)));
    }

    #[test]
    fn another_familys_heap_is_refused() {
        let (heap, _core) = fresh();
        let r = DurableCore::open(&policy(&heap), Family::Stack);
        assert!(matches!(r, Err(DurableError::WrongFamily)));
    }

    #[test]
    fn a_supplied_heap_below_the_layout_is_refused() {
        let needed = DurableCore::words_needed(HANDLES, 2, 8, 4);
        let heap = PersistentHeap::volatile(needed - 1);
        let r = DurableCore::create(&policy(&heap), Family::Counter, 0, HANDLES);
        assert!(matches!(
            r,
            Err(DurableError::HeapTooSmall { needed: n, have }) if n == needed && have == needed - 1
        ));
    }

    #[test]
    fn a_torn_record_is_skipped_and_zeroed() {
        let (heap, core) = fresh();
        log(&core, 0, &mut [add(0, 1, 10), add(1, 1, 11)]);
        log(&core, 0, &mut [add(0, 2, 12)]);
        tear(&core, 0, &[add(0, 3, 13), add(1, 2, 14)]);
        let report = open(&heap).unwrap();
        assert_eq!(report.committed_records, 2);
        assert_eq!(report.torn_records, 1);
        assert_eq!(logged(&report), [(0, 1, 10), (1, 1, 11), (0, 2, 12)]);
        // Recovery zeroed the residue: a second scan finds nothing torn.
        let again = open(&heap).unwrap();
        assert_eq!(again.torn_records, 0);
        assert_eq!(again.ops, report.ops);
    }

    #[test]
    fn a_committed_record_failing_its_checksum_is_corrupt() {
        let (heap, core) = fresh();
        log(&core, 1, &mut [add(0, 1, 10), add(1, 1, 11)]);
        // The second entry's operand word.
        let off = core.area_off(1) + REC_HDR_WORDS + ENTRY_WORDS + 2;
        heap.word(off).fetch_xor(1, Ordering::Relaxed);
        let err = open(&heap).unwrap_err();
        assert!(
            matches!(&err, DurableError::Corrupt(m) if m.contains("checksum")),
            "{err}"
        );
    }

    #[test]
    fn an_op_seq_gap_is_corrupt() {
        let (heap, core) = fresh();
        log(&core, 0, &mut [add(0, 1, 10)]);
        log(&core, 1, &mut [add(0, 3, 12)]);
        let err = open(&heap).unwrap_err();
        assert!(
            matches!(&err, DurableError::Corrupt(m) if m.contains("gap")),
            "{err}"
        );
    }

    #[test]
    fn a_torn_intent_never_executed() {
        let (heap, core) = fresh();
        core.write_intent(0, 1, opcode::ADD, 5, 0);
        log(&core, 0, &mut [add(0, 1, 5)]);
        core.write_intent(0, 2, opcode::ADD, 6, 0);
        core.write_intent(1, 1, opcode::ADD, 7, 0);
        // Handle 1 died between its field stores and its checksum.
        heap.word(core.intent_off(1) + 4)
            .store(0, Ordering::Relaxed);
        let report = open(&heap).unwrap();
        assert_eq!(
            report.handles[0].pending,
            PendingOutcome::NeverExecuted { op_seq: 2 }
        );
        assert_eq!(report.handles[1].pending, PendingOutcome::TornIntent);
        assert_eq!(report.handles[1].executed, 0);
    }

    #[test]
    fn shorter_records_over_a_torn_longer_one_recover_exactly() {
        let (heap, core) = fresh();
        log(&core, 0, &mut [add(0, 1, 10)]);
        tear(&core, 0, &[add(0, 2, 11), add(1, 1, 12), add(1, 2, 13)]);
        drop(core);
        let (core, report) = DurableCore::open(&policy(&heap), Family::Counter).unwrap();
        assert_eq!(report.torn_records, 1);
        assert_eq!(logged(&report), [(0, 1, 10)]);
        // A one-entry record, as the solo path writes it, ends where
        // the torn record's second entry began: that entry's first
        // word is where the next commit word lands.
        let mut req = add(0, 2, 21);
        assert!(core.try_solo(0, &mut req, |r| r.set_result(OpResult::Unit)));
        drop(core);
        let (core, report) = DurableCore::open(&policy(&heap), Family::Counter).unwrap();
        assert_eq!(report.torn_records, 0);
        assert_eq!(logged(&report), [(0, 1, 10), (0, 2, 21)]);
        log(&core, 0, &mut [add(1, 1, 22), add(1, 2, 23)]);
        drop(core);
        let report = open(&heap).unwrap();
        assert_eq!(report.torn_records, 0);
        assert_eq!(report.committed_records, 3);
        assert_eq!(
            logged(&report),
            [(0, 1, 10), (0, 2, 21), (1, 1, 22), (1, 2, 23)]
        );
    }

    #[test]
    fn records_pack_back_to_back_and_fill_the_area() {
        let (heap, core) = fresh();
        // The area holds 8 four-entry records (184 words), so 23
        // one-entry records of 8 words.
        let fit = DurableCore::area_words(8, 4) / DurableCore::record_words(1);
        for seq in 1..=fit as u64 {
            log(&core, 1, &mut [add(0, seq, seq)]);
        }
        assert_eq!(
            core.w(core.tail_off(1)).load(Ordering::Relaxed) as usize,
            fit * DurableCore::record_words(1)
        );
        let report = open(&heap).unwrap();
        assert_eq!(report.committed_records, fit);
        assert_eq!(report.torn_records, 0);
    }

    #[test]
    fn solo_is_refused_under_sync_and_while_the_lock_is_held() {
        let (heap, core) = fresh();
        let mut req = add(0, 1, 1);
        {
            let _held = core.apply_lock.lock().unwrap();
            assert!(!core.try_solo(0, &mut req, |_| unreachable!()));
        }
        let sync = DurableCore::create(
            &policy(&PersistentHeap::volatile(heap.words())).sync(SyncMode::Sync),
            Family::Counter,
            0,
            HANDLES,
        )
        .unwrap();
        assert!(!sync.try_solo(0, &mut req, |_| unreachable!()));
        assert!(core.try_solo(0, &mut req, |r| r.set_result(OpResult::Unit)));
        assert_eq!(core.stats().records, 1);
    }
}
