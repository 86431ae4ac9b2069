//! The modelled shootdown fan-out of a write ping-pong on a 16-processor
//! machine (the paper's machine size).
//!
//! One page is written round-robin by all 16 processors with
//! `t1_ns = 0`, so it never freezes: every write faults, migrates the
//! page and posts an invalidation to every other processor. Only the
//! current writer runs; its peers sit suspended, so they are never
//! interrupted and apply their queued invalidations when they resume
//! (§3.1's activity optimization). A suspended processor keeps its
//! reference bit until it applies the change, so after the first lap
//! every message targets the 15 other processors and every resume
//! applies exactly one message per other writer.
//!
//! This pins the per-message work the kernel models — one apply charge,
//! one ack and one `ipis_handled` per message per target — and the final
//! virtual time, which must not move however the kernel stores its
//! message queue.

use std::sync::Arc;

use numa_machine::{Machine, MachineConfig, Mem};
use platinum::{Kernel, KernelConfig, PlatinumPolicy, Rights};

const PROCS: usize = 16;
const LAPS: usize = 40;

#[test]
fn every_resume_applies_one_message_per_other_writer() {
    let machine = Machine::new(MachineConfig {
        nodes: PROCS,
        frames_per_node: 256,
        skew_window_ns: None,
        ..MachineConfig::default()
    })
    .unwrap();
    let kernel = Kernel::with_config(
        machine,
        Box::new(PlatinumPolicy {
            t1_ns: 0,
            ..PlatinumPolicy::paper_default()
        }),
        KernelConfig::default(),
    );
    let space = kernel.create_space();
    let object = kernel.create_object(1);
    let va = space.map_anywhere(object, Rights::RW).unwrap();
    let mut ctxs: Vec<_> = (0..PROCS)
        .map(|p| kernel.attach(Arc::clone(&space), p, 0).unwrap())
        .collect();
    for c in ctxs.iter_mut().skip(1) {
        c.suspend();
    }

    let writes = PROCS * LAPS;
    for k in 0..writes {
        let i = k % PROCS;
        ctxs[i].write(va, k as u32);
        let next = (i + 1) % PROCS;
        let before = ctxs[next].counters().ipis_handled;
        ctxs[next].resume();
        let applied = ctxs[next].counters().ipis_handled - before;
        // During the first lap the next writer has never touched the
        // page, so nothing targets it; from then on each of the 15 other
        // processors has written once since its last turn.
        let expected = if k + 1 < PROCS { 0 } else { PROCS as u64 - 1 };
        assert_eq!(
            applied, expected,
            "resume of processor {next} after write {k}"
        );
        ctxs[i].suspend();
    }

    let last = writes as u32 - 1;
    assert_eq!(ctxs[writes % PROCS].read(va), last);
    let max_vtime = ctxs.iter().map(|c| c.vtime()).max().unwrap();
    assert_eq!(max_vtime, 239_906_480, "final max vtime");
}
