//! Cmap entries and the shootdown message log (§2.3 of the paper).

use std::collections::hash_map::Entry;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use numa_machine::{AtomicProcSet, ProcSet, Vpn};

use crate::hash::FastMap;
use crate::ids::{CpageId, Rights};

/// A Cmap entry: the cached composition of the virtual-to-object and
/// object-to-coherent mappings for one virtual page of one address space.
///
/// "A Cmap entry is analogous to a page table entry. It contains a
/// pointer to the coherent page, an access rights field, and a bit vector
/// called the reference mask" (§2.3).
pub struct CmapEntry {
    /// The coherent page this virtual page maps to.
    pub cpage: CpageId,
    /// The rights the virtual memory system granted (virtual-to-coherent
    /// level). The protocol may restrict the physical mapping further.
    pub rights: Rights,
    /// Reference mask: processor `p` is a member when it holds a
    /// virtual-to-physical translation for this page in its Pmap.
    /// Maintained with atomics so faulting processors and shootdown
    /// targets never need a shared lock.
    pub refmask: AtomicProcSet,
}

impl CmapEntry {
    /// Creates an entry with an empty reference mask, sized for a machine
    /// of `nprocs` processors.
    pub fn new(cpage: CpageId, rights: Rights, nprocs: usize) -> Self {
        Self {
            cpage,
            rights,
            refmask: AtomicProcSet::with_capacity(nprocs),
        }
    }

    /// Marks processor `p` as holding a translation.
    #[inline]
    pub fn set_ref(&self, p: usize) {
        self.refmask.insert(p);
    }

    /// Clears processor `p`'s reference bit.
    #[inline]
    pub fn clear_ref(&self, p: usize) {
        self.refmask.remove(p);
    }

    /// A snapshot of the current reference mask.
    #[inline]
    pub fn refs(&self) -> ProcSet {
        self.refmask.load()
    }
}

/// A shootdown directive carried by a Cmap message (§2.3: "a directive
/// either to invalidate the current translation or to restrict the access
/// rights in it").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Directive {
    /// Remove the virtual-to-physical translation entirely.
    Invalidate,
    /// Remove the translation only if it points at a physical copy on one
    /// of the modules in the set (used when selected replicas are being
    /// reclaimed; translations to the surviving copy are left intact).
    InvalidateModules(ProcSet),
    /// Downgrade the translation to read-only.
    RestrictToRead,
}

/// A Cmap message: "describes a change made to a virtual address space
/// that affects virtual-to-physical mappings held by two or more
/// processors" (§2.3).
pub struct CmapMsg {
    /// The virtual page whose translation must change.
    pub vpn: Vpn,
    /// What to do to it.
    pub directive: Directive,
    /// Processors that still have to apply the change; each target removes
    /// itself after updating its Pmap ("it applies the change to its
    /// Pmap and removes itself from the target mask").
    pub targets: AtomicProcSet,
}

impl CmapMsg {
    /// Creates a message for `targets`.
    pub fn new(vpn: Vpn, directive: Directive, targets: &ProcSet) -> Arc<Self> {
        Arc::new(Self {
            vpn,
            directive,
            targets: AtomicProcSet::from_set(targets),
        })
    }

    /// Rewrites the message in place for reuse. Requires exclusive access
    /// (`Arc::get_mut`), which proves neither the log nor a waiting
    /// initiator still holds the message — the per-processor message
    /// pools rely on this to recycle acknowledged messages without heap
    /// traffic.
    pub fn reset(&mut self, vpn: Vpn, directive: Directive, targets: &ProcSet) {
        self.vpn = vpn;
        self.directive = directive;
        self.targets.store_from(targets);
    }

    /// Removes `p` from the targets: `p` has applied the change.
    #[inline]
    pub fn ack(&self, p: usize) {
        self.targets.remove(p);
    }

    /// A snapshot of the processors that have not yet applied the change.
    #[inline]
    pub fn pending(&self) -> ProcSet {
        self.targets.load()
    }

    /// Whether processor `p` still has to apply the change.
    #[inline]
    pub fn pending_for_proc(&self, p: usize) -> bool {
        self.targets.contains(p)
    }

    /// Whether any target has yet to apply the change.
    #[inline]
    pub fn has_pending(&self) -> bool {
        !self.targets.is_empty()
    }

    /// Whether any processor in `set` has yet to apply the change — the
    /// snapshot-free test initiators spin on while awaiting their own
    /// targets.
    #[inline]
    pub fn pending_intersects(&self, set: &ProcSet) -> bool {
        self.targets.intersects(set)
    }
}

/// Default number of directory shards. Power of two; tuned so sixteen
/// faulting processors rarely collide on a shard lock.
pub const DEFAULT_SHARDS: usize = 16;

/// One directory shard: a lock over the VPN-to-entry map it stripes.
type Shard = RwLock<FastMap<Vpn, Arc<CmapEntry>>>;

/// The per-address-space Cmap: the virtual-to-coherent page table plus the
/// queue of recent mapping-change messages (§2.3).
///
/// The directory is sharded by virtual page number so concurrent faults on
/// different pages take different locks; consecutive pages land on
/// different shards. The message queue is one log in post order: a
/// message is appended once, whatever its target count, and each target
/// applies it in place when it drains the log.
pub struct Cmap {
    /// Virtual-to-coherent entries, created lazily on first fault,
    /// striped over `shards.len()` (a power of two) independent maps.
    shards: Box<[Shard]>,
    shard_mask: usize,
    /// "A queue of Cmap messages describing recent changes to the address
    /// space", in post order. Every message in it has a nonempty target
    /// set: the drain that removes the last target drops the message.
    log: Mutex<Vec<Arc<CmapMsg>>>,
    /// Number of processors on the machine this Cmap serves; sizes new
    /// reference masks.
    nprocs: usize,
}

impl Cmap {
    /// An empty Cmap with the default shard count, sized for a 64-processor
    /// machine (tests and tools; the kernel threads the real count through
    /// [`Cmap::with_shards`]).
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS, 64)
    }

    /// An empty Cmap with `shards` directory shards serving a machine of
    /// `nprocs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is not a nonzero power of two or `nprocs` is 0.
    pub fn with_shards(shards: usize, nprocs: usize) -> Self {
        assert!(
            shards.is_power_of_two() && shards > 0,
            "Cmap shard count must be a nonzero power of two"
        );
        assert!(nprocs > 0, "Cmap needs at least one processor");
        let mut s = Vec::with_capacity(shards);
        s.resize_with(shards, || RwLock::new(FastMap::default()));
        Self {
            shards: s.into_boxed_slice(),
            shard_mask: shards - 1,
            log: Mutex::new(Vec::new()),
            nprocs,
        }
    }

    /// The number of directory shards.
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// The processor count this Cmap was sized for.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// An empty entry for `vpn`-insertion, sized for this machine.
    pub fn make_entry(&self, cpage: CpageId, rights: Rights) -> CmapEntry {
        CmapEntry::new(cpage, rights, self.nprocs)
    }

    #[inline]
    fn shard(&self, vpn: Vpn) -> &RwLock<FastMap<Vpn, Arc<CmapEntry>>> {
        &self.shards[(vpn as usize) & self.shard_mask]
    }

    /// Looks up the entry for `vpn`.
    pub fn entry(&self, vpn: Vpn) -> Option<Arc<CmapEntry>> {
        self.shard(vpn).read().get(&vpn).cloned()
    }

    /// The reference mask of the entry for `vpn`, read without an Arc
    /// round-trip — the shootdown post path only needs the mask.
    pub fn refs_of(&self, vpn: Vpn) -> Option<ProcSet> {
        self.shard(vpn).read().get(&vpn).map(|e| e.refs())
    }

    /// Runs `f` on the entry for `vpn`, if present, under the shard read
    /// lock — the message-apply path's `clear_ref` without cloning the
    /// entry handle.
    pub fn with_entry(&self, vpn: Vpn, f: impl FnOnce(&CmapEntry)) {
        if let Some(e) = self.shard(vpn).read().get(&vpn) {
            f(e);
        }
    }

    /// Inserts an entry for `vpn`, returning the entry actually in the
    /// table (the existing one if another processor raced the insert) and
    /// whether this call created it.
    pub fn insert(&self, vpn: Vpn, entry: CmapEntry) -> (Arc<CmapEntry>, bool) {
        let mut map = self.shard(vpn).write();
        match map.entry(vpn) {
            Entry::Occupied(e) => (Arc::clone(e.get()), false),
            Entry::Vacant(v) => (Arc::clone(v.insert(Arc::new(entry))), true),
        }
    }

    /// Removes and returns the entry for `vpn` (unmap).
    pub fn remove(&self, vpn: Vpn) -> Option<Arc<CmapEntry>> {
        self.shard(vpn).write().remove(&vpn)
    }

    /// All (vpn, entry) pairs; report and teardown support.
    pub fn snapshot(&self) -> Vec<(Vpn, Arc<CmapEntry>)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let map = shard.read();
            out.extend(map.iter().map(|(v, e)| (*v, Arc::clone(e))));
        }
        out
    }

    /// Posts a message: it is appended to the log once for all of its
    /// (current) targets. A message with no target is not logged.
    pub fn post(&self, msg: Arc<CmapMsg>) {
        if msg.has_pending() {
            self.log.lock().push(msg);
        }
    }

    /// The Cmap side of a processor's message drain: in post order, runs
    /// `apply` on every message still pending for `p` and then
    /// acknowledges it for `p`; in the same pass, drops every message
    /// whose target set is now empty. Returns the number applied.
    ///
    /// `apply` runs under the log lock, which is what orders a drain
    /// against a concurrent post (the activity handshake in
    /// [`ActiveSpace`]). It may take directory shard locks, never post.
    ///
    /// [`ActiveSpace`]: crate::coherent::signal::ActiveSpace
    pub fn drain(&self, p: usize, mut apply: impl FnMut(&CmapMsg)) -> u64 {
        let mut applied = 0;
        self.log.lock().retain(|m| {
            if m.pending_for_proc(p) {
                apply(m);
                m.ack(p);
                applied += 1;
            }
            m.has_pending()
        });
        applied
    }

    /// Number of logged messages still pending for processor `p` (tests
    /// and reporting).
    pub fn pending_count(&self, p: usize) -> usize {
        self.log
            .lock()
            .iter()
            .filter(|m| m.pending_for_proc(p))
            .count()
    }

    /// Number of messages in the log (tests and reporting).
    pub fn log_len(&self) -> usize {
        self.log.lock().len()
    }
}

impl Default for Cmap {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refmask_bits() {
        let e = CmapEntry::new(CpageId(0), Rights::RW, 16);
        assert!(e.refs().is_empty());
        e.set_ref(3);
        e.set_ref(7);
        assert_eq!(e.refs(), ProcSet::from_mask((1 << 3) | (1 << 7)));
        e.clear_ref(3);
        assert_eq!(e.refs(), ProcSet::single(7));
    }

    #[test]
    fn refmask_holds_big_machine_ids() {
        let e = CmapEntry::new(CpageId(0), Rights::RW, 256);
        e.set_ref(0);
        e.set_ref(200);
        assert_eq!(e.refs().iter().collect::<Vec<_>>(), vec![0, 200]);
        e.clear_ref(200);
        assert_eq!(e.refs(), ProcSet::single(0));
    }

    /// Drains the log as processor `p`, returning what it applied.
    fn drain_as(c: &Cmap, p: usize) -> Vec<(Vpn, Directive)> {
        let mut out = Vec::new();
        let n = c.drain(p, |m| out.push((m.vpn, m.directive.clone())));
        assert_eq!(n as usize, out.len());
        out
    }

    #[test]
    fn message_ack_drains() {
        let m = CmapMsg::new(5, Directive::Invalidate, &ProcSet::from_mask(0b1011));
        m.ack(0);
        m.ack(3);
        assert_eq!(m.pending(), ProcSet::from_mask(0b0010));
        m.ack(1);
        assert!(!m.has_pending());
    }

    #[test]
    fn log_post_drain_compact() {
        let c = Cmap::new();
        c.post(CmapMsg::new(
            1,
            Directive::Invalidate,
            &ProcSet::from_mask(0b01),
        ));
        c.post(CmapMsg::new(
            2,
            Directive::RestrictToRead,
            &ProcSet::from_mask(0b11),
        ));
        // A message for two targets is logged once.
        assert_eq!(c.log_len(), 2);
        assert_eq!(c.pending_count(0), 2);
        assert_eq!(c.pending_count(1), 1);

        // Draining applies a target's messages once; its acks compact
        // every message no other target still awaits.
        assert_eq!(
            drain_as(&c, 0),
            vec![(1, Directive::Invalidate), (2, Directive::RestrictToRead)]
        );
        assert_eq!(c.log_len(), 1);
        assert!(drain_as(&c, 0).is_empty(), "acked messages never re-apply");
        assert_eq!(drain_as(&c, 1), vec![(2, Directive::RestrictToRead)]);
        assert_eq!(c.log_len(), 0);

        // A message without targets is never logged.
        c.post(CmapMsg::new(3, Directive::Invalidate, &ProcSet::empty()));
        assert_eq!(c.log_len(), 0);
    }

    #[test]
    fn posted_message_skips_non_targets() {
        let c = Cmap::new();
        c.post(CmapMsg::new(
            4,
            Directive::Invalidate,
            &ProcSet::from_mask(0b100),
        ));
        assert!(drain_as(&c, 0).is_empty());
        assert!(drain_as(&c, 1).is_empty());
        assert_eq!(c.log_len(), 1, "a non-target's drain leaves it logged");
        assert_eq!(drain_as(&c, 2), vec![(4, Directive::Invalidate)]);
        assert_eq!(c.log_len(), 0);
    }

    #[test]
    fn messages_reach_targets_beyond_64() {
        let c = Cmap::with_shards(DEFAULT_SHARDS, 128);
        let m = CmapMsg::new(7, Directive::Invalidate, &ProcSet::single(100));
        c.post(Arc::clone(&m));
        assert!(drain_as(&c, 0).is_empty());
        assert_eq!(c.pending_count(100), 1);
        assert_eq!(drain_as(&c, 100), vec![(7, Directive::Invalidate)]);
        assert!(!m.has_pending());
        assert!(drain_as(&c, 100).is_empty());
        assert_eq!(c.log_len(), 0);
    }

    #[test]
    fn acked_messages_are_compacted_not_delivered() {
        let c = Cmap::new();
        let m = CmapMsg::new(9, Directive::RestrictToRead, &ProcSet::from_mask(0b11));
        c.post(Arc::clone(&m));
        // Target 1 somehow applied the change before draining (e.g. the
        // mapping was torn down); the log must not re-deliver.
        m.ack(1);
        assert!(drain_as(&c, 1).is_empty());
        assert_eq!(drain_as(&c, 0), vec![(9, Directive::RestrictToRead)]);
        assert_eq!(c.log_len(), 0);
    }

    #[test]
    fn directives_for_one_vpn_apply_in_post_order() {
        let c = Cmap::new();
        let both = ProcSet::from_mask(0b110);
        c.post(CmapMsg::new(3, Directive::RestrictToRead, &both));
        c.post(CmapMsg::new(3, Directive::Invalidate, &both));
        let order = vec![(3, Directive::RestrictToRead), (3, Directive::Invalidate)];
        assert_eq!(drain_as(&c, 2), order);
        assert_eq!(drain_as(&c, 1), order);
    }

    #[test]
    fn suspended_target_bounds_the_log() {
        // Processor 3 is suspended and never drains; processors 0, 1 and
        // 2 keep posting to each other (and now and then to 3) and
        // draining. The log holds 3's pending messages and at most the
        // few the active targets have not yet applied, never the
        // acknowledged history.
        let c = Cmap::new();
        let mut max_extra = 0;
        for i in 0..10_000u64 {
            let from = (i % 3) as usize;
            let mut targets = ProcSet::from_mask(0b0111).without(from);
            if i % 100 == 0 {
                targets.insert(3);
            }
            c.post(CmapMsg::new(i, Directive::Invalidate, &targets));
            let to = (from + 1) % 3;
            drain_as(&c, to);
            max_extra = max_extra.max(c.log_len() - c.pending_count(3));
        }
        assert_eq!(c.pending_count(3), 100);
        assert!(max_extra <= 2, "log kept {max_extra} acknowledged messages");
        // On resume it applies them in post order.
        let vpns: Vec<Vpn> = drain_as(&c, 3).into_iter().map(|(v, _)| v).collect();
        assert_eq!(vpns, (0..100).map(|k| k * 100).collect::<Vec<_>>());
        for p in 0..3 {
            drain_as(&c, p);
        }
        assert_eq!(c.log_len(), 0);
    }

    #[test]
    fn insert_race_returns_existing() {
        let c = Cmap::new();
        let (a, created_a) = c.insert(9, c.make_entry(CpageId(1), Rights::RO));
        let (b, created_b) = c.insert(9, c.make_entry(CpageId(2), Rights::RW));
        assert!(created_a && !created_b, "only the first insert creates");
        assert!(Arc::ptr_eq(&a, &b), "second insert must not replace");
        assert_eq!(b.cpage, CpageId(1));
        assert!(c.remove(9).is_some());
        assert!(c.entry(9).is_none());
    }

    #[test]
    fn sharding_is_transparent() {
        for shards in [1usize, 4, 16] {
            let c = Cmap::with_shards(shards, 64);
            assert_eq!(c.nshards(), shards);
            for vpn in 0..40u64 {
                c.insert(vpn, c.make_entry(CpageId(vpn), Rights::RW));
            }
            let mut snap = c.snapshot();
            snap.sort_by_key(|(v, _)| *v);
            assert_eq!(snap.len(), 40);
            for (i, (vpn, e)) in snap.iter().enumerate() {
                assert_eq!(*vpn, i as u64);
                assert_eq!(e.cpage, CpageId(i as u64));
            }
            assert!(c.entry(17).is_some());
            assert!(c.remove(17).is_some());
            assert!(c.entry(17).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_shard_count_panics() {
        let _ = Cmap::with_shards(12, 16);
    }
}
