//! Shared collective plans: the tag partition and the binomial-tree step
//! generator used by *every* collective path — the host-driven trees in
//! `mpiq-mpi::collectives`, the script-level fallback runner, and the
//! NIC-firmware offload engine. One generator means an offloaded rank and
//! a fallen-back rank emit byte-identical wire patterns and therefore
//! interoperate mid-collective (e.g. when one node's ALPU is quarantined
//! and its neighbours' are not).
//!
//! # Tag partition
//!
//! Collective traffic runs on the internal context with tags in the upper
//! half of the 16-bit tag space (`0x8000 |`), leaving 15 bits. The old
//! scheme hashed `instance * 97 + k` into those 15 bits, which collides as
//! soon as a message index `k` reaches 97 — exactly what happens at ≥ 98
//! ranks, where per-rank tags use `k = 2 + rank`. [`ctag`] instead
//! *partitions* the space: each of [`INSTANCES`] instance slots owns a
//! contiguous block of [`K_SPAN`] message indices, so distinct in-flight
//! instances can never produce the same tag (scripts are sequential, so
//! only a couple of instances overlap in flight; 31 slots is far more
//! than the 2 the runtime needs).
//!
//! Message-index (`k`) assignment, fixed across the codebase:
//!
//! * `k = 0` — broadcast/down phase of a tree,
//! * `k = 1` — reduce/up phase of a tree,
//! * `k = 2 + rank` — per-rank tags (gather/scatter/alltoall).
//!
//! With `K_SPAN = 1056` the largest per-rank index at the target scale
//! (n = 1024 → `k = 1025`) fits with headroom; `31 * 1056 = 32736`
//! blocks fit in the 15-bit space with 32 codes to spare.

use mpiq_net::NodeId;

/// Context id collective traffic runs on. This must equal the MPI layer's
/// `CTX_INTERNAL`; `mpiq-nic` cannot depend on `mpiq-mpi`, so the value is
/// duplicated here and pinned by a test on the MPI side.
pub const COLL_CTX: u16 = 0;

/// Message-index span owned by each instance slot.
pub const K_SPAN: u16 = 1056;

/// Number of instance slots the 15-bit space is partitioned into.
pub const INSTANCES: u16 = 31;

/// Collision-free collective tag for `instance`, message index `k`.
///
/// Distinct instance slots (`instance mod INSTANCES`) map to disjoint
/// `K_SPAN`-sized blocks, so no two in-flight collectives with distinct
/// slots can collide, for any pair of message indices.
pub fn ctag(instance: u16, k: u16) -> u16 {
    assert!(k < K_SPAN, "collective message index {k} out of range");
    0x8000 | ((instance % INSTANCES) * K_SPAN + k)
}

/// The collectives the NIC firmware can run without host round-trips.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollOp {
    /// Zero-payload allreduce: up-tree then down-tree, root 0.
    Barrier,
    /// Binomial-tree broadcast from a root.
    Bcast,
    /// Reduce-to-0 then broadcast-from-0 (message pattern only; the
    /// combining arithmetic is not modeled).
    Allreduce,
    /// Fault-tolerant agreement on a failed-rank bitmask (ULFM
    /// `MPI_Comm_agree` shape). All-exchange rather than a tree: a tree
    /// edge through a dead rank would sever mask propagation, while the
    /// all-exchange plan keeps every pair of survivors directly
    /// connected. The mask itself rides in `payload_len` — the only data
    /// plane this simulator has — so `len` here is the *seed* mask and
    /// the firmware/fallback runner OR in everything they learn.
    Agree,
}

/// Direction of one collective step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    /// Transmit to `peer`.
    Send,
    /// Wait for a message from `peer`.
    Recv,
}

/// One point-to-point step of a collective, in dependency order: a rank's
/// steps must complete in sequence for the tree to make progress.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CollStep {
    /// Send or receive.
    pub dir: Dir,
    /// The absolute peer rank.
    pub peer: u32,
    /// Matching tag, from [`ctag`].
    pub tag: u16,
    /// Payload length in bytes.
    pub len: u32,
}

/// Steps of the binomial-tree reduce phase (`k = 1`) for rank `me` of
/// `n`, rooted at `root`: receive from each child in ascending mask
/// order, then send the combined value to the parent (the MPICH
/// `MPI_Reduce` pattern).
pub fn reduce_steps(me: u32, n: u32, root: u32, len: u32, instance: u16) -> Vec<CollStep> {
    assert!(me < n && root < n);
    let mut steps = Vec::new();
    if n <= 1 {
        return steps;
    }
    let relative = (me + n - root) % n;
    let tag = ctag(instance, 1);
    let mut mask = 1u32;
    while mask < n {
        if relative & mask == 0 {
            let src_rel = relative | mask;
            if src_rel < n {
                let peer = (src_rel + root) % n;
                steps.push(CollStep { dir: Dir::Recv, peer, tag, len });
            }
        } else {
            // De-rotate the parent's relative rank back into absolute
            // rank space through `root`.
            let peer = ((relative & !mask) + root) % n;
            steps.push(CollStep { dir: Dir::Send, peer, tag, len });
            break;
        }
        mask <<= 1;
    }
    steps
}

/// Steps of the binomial-tree broadcast phase (`k = 0`) for rank `me` of
/// `n`, rooted at `root`: receive once from the parent, then forward to
/// each child in descending mask order (the MPICH `MPI_Bcast` pattern).
///
/// Both the parent and the child are computed in *relative* rank space
/// and de-rotated through `root` explicitly — `((relative ± mask) + root)
/// % n` — rather than mixing absolute and relative arithmetic, so the
/// tree shape is manifestly root-invariant (see the shape-oracle tests).
pub fn bcast_steps(me: u32, n: u32, root: u32, len: u32, instance: u16) -> Vec<CollStep> {
    assert!(me < n && root < n);
    let mut steps = Vec::new();
    if n <= 1 {
        return steps;
    }
    let relative = (me + n - root) % n;
    let tag = ctag(instance, 0);
    let mut mask = 1u32;
    while mask < n {
        if relative & mask != 0 {
            // `relative & mask != 0` implies `relative >= mask`.
            let peer = ((relative - mask) + root) % n;
            steps.push(CollStep { dir: Dir::Recv, peer, tag, len });
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if relative + mask < n {
            let peer = ((relative + mask) + root) % n;
            steps.push(CollStep { dir: Dir::Send, peer, tag, len });
        }
        mask >>= 1;
    }
    steps
}

/// Steps of one fault-tolerant agreement sweep for rank `me` of `n`:
/// send the local failed-set mask to every other rank on this rank's
/// per-rank tag (`k = 2 + me`), then collect every other rank's mask
/// from *its* per-rank tag (`k = 2 + peer`), both in ascending peer
/// order. Sends come first so a rank never blocks its own contribution
/// behind a recv from a rank that may be dead.
///
/// The mask is a `u16`, one bit per world rank, so agreement is capped
/// at 16 ranks — far above the rank counts recovery scenarios run at,
/// and small enough that the mask-as-`payload_len` stays below the
/// eager threshold (offload and host fallback then use the same wire
/// protocol for every frame).
pub fn agree_steps(me: u32, n: u32, len: u32, instance: u16) -> Vec<CollStep> {
    assert!(me < n);
    assert!(n <= 16, "agreement mask is one u16 bit per rank");
    let mut steps = Vec::new();
    for peer in (0..n).filter(|&p| p != me) {
        steps.push(CollStep { dir: Dir::Send, peer, tag: ctag(instance, 2 + me as u16), len });
    }
    for peer in (0..n).filter(|&p| p != me) {
        steps.push(CollStep {
            dir: Dir::Recv,
            peer,
            tag: ctag(instance, 2 + peer as u16),
            len,
        });
    }
    steps
}

/// The full step list for rank `me` of `n` in one collective instance.
///
/// `root` is ignored for [`CollOp::Barrier`] and [`CollOp::Allreduce`]
/// (their trees root at 0). A single `instance` covers both phases of an
/// allreduce — the reduce phase uses `k = 1` and the broadcast phase
/// `k = 0`, so they cannot collide within the instance.
pub fn steps(op: CollOp, me: u32, n: u32, root: u32, len: u32, instance: u16) -> Vec<CollStep> {
    match op {
        CollOp::Bcast => bcast_steps(me, n, root, len, instance),
        CollOp::Agree => agree_steps(me, n, len, instance),
        CollOp::Barrier | CollOp::Allreduce => {
            let len = if op == CollOp::Barrier { 0 } else { len };
            let mut s = reduce_steps(me, n, 0, len, instance);
            s.extend(bcast_steps(me, n, 0, len, instance));
            s
        }
    }
}

/// Node a rank lives on when every node runs one rank — the only layout
/// the firmware offload engine accepts (multi-rank nodes decline to the
/// host path).
pub fn peer_node(rank: u32) -> NodeId {
    rank as NodeId
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    /// The pre-fix hash, reconstructed for the regression test.
    fn old_ctag(instance: u16, k: u16) -> u16 {
        0x8000 | ((instance.wrapping_mul(97).wrapping_add(k)) & 0x7FFF)
    }

    /// The old `*97` hash mis-matches two overlapping collectives as soon
    /// as a message index reaches 97 — i.e. at ≥ 98 ranks, where
    /// per-rank tags use `k = 2 + rank` (rank 97 → k = 99). Instance 1's
    /// rank-97 tag equals instance 2's rank-0 tag.
    #[test]
    fn old_hash_collides_at_98_ranks_new_partition_does_not() {
        // k = 99 is the per-rank index of rank 97, first reached with 98
        // ranks; k = 2 is rank 0's index in the neighbouring instance.
        assert_eq!(old_ctag(1, 99), old_ctag(2, 2), "old hash collision");
        assert_ne!(ctag(1, 99), ctag(2, 2), "partitioned tags must differ");
    }

    /// The partition is a bijection over its whole domain: all
    /// `INSTANCES * K_SPAN` (instance, k) pairs yield distinct tags with
    /// the collective bit set.
    #[test]
    fn ctag_is_bijective_over_the_partition() {
        let mut seen = HashSet::new();
        for i in 0..INSTANCES {
            for k in 0..K_SPAN {
                let t = ctag(i, k);
                assert!(t & 0x8000 != 0, "collective bit missing on {t:#x}");
                assert!(seen.insert(t), "collision at instance {i}, k {k}");
            }
        }
        assert_eq!(seen.len(), (INSTANCES as usize) * (K_SPAN as usize));
    }

    /// Exhaustive in-flight-pair check at n = 1024: for every pair of
    /// distinct instance slots, no tag produced by one (over the full
    /// index range a 1024-rank collective can use, k ≤ 2 + 1023) equals
    /// any tag produced by the other.
    #[test]
    fn no_instance_pair_collides_at_1024_ranks() {
        let k_max = 2 + 1023u16; // largest per-rank index at n = 1024
        assert!(k_max < K_SPAN);
        let mut owner: HashMap<u16, u16> = HashMap::new();
        for i in 0..INSTANCES {
            for k in 0..=k_max {
                if let Some(&j) = owner.get(&ctag(i, k)) {
                    panic!("instances {j} and {i} collide at k {k}");
                }
                owner.insert(ctag(i, k), i);
            }
        }
    }

    /// One message of a collective: (from, to, tag, len).
    type Edge = (u32, u32, u16, u32);

    /// Collect every rank's steps for one op and return (sends, recvs).
    fn edges(op: CollOp, n: u32, root: u32, len: u32, instance: u16) -> (Vec<Edge>, Vec<Edge>) {
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for me in 0..n {
            for s in steps(op, me, n, root, len, instance) {
                match s.dir {
                    Dir::Send => sends.push((me, s.peer, s.tag, s.len)),
                    Dir::Recv => recvs.push((s.peer, me, s.tag, s.len)),
                }
            }
        }
        (sends, recvs)
    }

    /// MPICH-shape oracle for bcast: every non-root rank receives exactly
    /// once, the root receives nothing, every send pairs with exactly one
    /// receive, and the send edges form a tree rooted at `root` reaching
    /// all ranks. Swept over non-power-of-two sizes and all roots — this
    /// is the oracle for the non-zero-root child-targeting bug class.
    #[test]
    fn bcast_shape_oracle_all_roots() {
        for n in 2..=33u32 {
            for root in 0..n {
                let (sends, recvs) = edges(CollOp::Bcast, n, root, 64, 5);
                let mut recv_count = vec![0u32; n as usize];
                for &(_, to, _, _) in &recvs {
                    recv_count[to as usize] += 1;
                }
                assert_eq!(recv_count[root as usize], 0, "n={n} root={root}");
                for (r, &c) in recv_count.iter().enumerate() {
                    if r as u32 != root {
                        assert_eq!(c, 1, "n={n} root={root}: rank {r} receives {c} times");
                    }
                }
                // Every send matched by exactly one receive on the same
                // (from, to, tag, len) edge.
                let mut s = sends.clone();
                let mut r = recvs.clone();
                s.sort_unstable();
                r.sort_unstable();
                assert_eq!(s, r, "n={n} root={root}: unmatched edges");
                // The send edges reach every rank from the root.
                let mut reached = HashSet::from([root]);
                let mut frontier = vec![root];
                while let Some(v) = frontier.pop() {
                    for &(from, to, _, _) in &sends {
                        if from == v && reached.insert(to) {
                            frontier.push(to);
                        }
                    }
                }
                assert_eq!(
                    reached.len(),
                    n as usize,
                    "n={n} root={root}: bcast tree does not span"
                );
            }
        }
    }

    /// Reduce oracle: every non-root sends exactly once, the root sends
    /// nothing, and the up-edges reach the root from every rank.
    #[test]
    fn reduce_shape_oracle_all_roots() {
        for n in 2..=33u32 {
            for root in 0..n {
                let mut sends = Vec::new();
                let mut recvs = Vec::new();
                for me in 0..n {
                    for s in reduce_steps(me, n, root, 64, 6) {
                        match s.dir {
                            Dir::Send => sends.push((me, s.peer)),
                            Dir::Recv => recvs.push((s.peer, me)),
                        }
                    }
                }
                let mut send_count = vec![0u32; n as usize];
                for &(from, _) in &sends {
                    send_count[from as usize] += 1;
                }
                assert_eq!(send_count[root as usize], 0, "n={n} root={root}");
                for (r, &c) in send_count.iter().enumerate() {
                    if r as u32 != root {
                        assert_eq!(c, 1, "n={n} root={root}: rank {r} sends {c} times");
                    }
                }
                sends.sort_unstable();
                recvs.sort_unstable();
                assert_eq!(sends, recvs, "n={n} root={root}: unmatched edges");
                // Following parent edges from any rank terminates at root.
                let parent: HashMap<u32, u32> = sends.iter().copied().collect();
                for mut v in 0..n {
                    let mut hops = 0;
                    while v != root {
                        v = parent[&v];
                        hops += 1;
                        assert!(hops <= n, "n={n} root={root}: cycle in reduce tree");
                    }
                }
            }
        }
    }

    /// Barrier and allreduce pair every send with a receive globally and
    /// use a single instance for both phases (distinct per-phase k).
    #[test]
    fn barrier_and_allreduce_edges_pair_up() {
        for n in [2u32, 3, 7, 16, 33] {
            for op in [CollOp::Barrier, CollOp::Allreduce] {
                let (mut s, mut r) = edges(op, n, 0, 128, 9);
                if op == CollOp::Barrier {
                    assert!(s.iter().all(|&(_, _, _, l)| l == 0), "barrier carries payload");
                }
                s.sort_unstable();
                r.sort_unstable();
                assert_eq!(s, r, "op={op:?} n={n}: unmatched edges");
                let tags: HashSet<u16> = s.iter().map(|&(_, _, t, _)| t).collect();
                assert_eq!(tags.len(), 2, "up and down phases share an instance");
                assert_eq!(tags, HashSet::from([ctag(9, 0), ctag(9, 1)]));
            }
        }
    }

    /// Agree oracle: every rank exchanges exactly once with every other
    /// rank in both directions, each send pairs with exactly one recv on
    /// the sender's per-rank tag, and all sends precede all recvs so no
    /// rank's contribution waits behind a possibly-dead peer.
    #[test]
    fn agree_is_a_complete_exchange_with_sends_first() {
        for n in [2u32, 3, 5, 8, 16] {
            let (mut s, mut r) = edges(CollOp::Agree, n, 0, 0b101, 4);
            assert_eq!(s.len(), (n * (n - 1)) as usize);
            s.sort_unstable();
            r.sort_unstable();
            assert_eq!(s, r, "n={n}: unmatched edges");
            for &(from, to, tag, _) in &s {
                assert_ne!(from, to);
                assert_eq!(tag, ctag(4, 2 + from as u16), "mask travels on sender's tag");
            }
            for me in 0..n {
                let st = agree_steps(me, n, 0, 4);
                let first_recv = st.iter().position(|x| x.dir == Dir::Recv).unwrap();
                assert!(
                    st[..first_recv].iter().all(|x| x.dir == Dir::Send),
                    "n={n} me={me}: send phase must fully precede recv phase"
                );
            }
        }
    }

    /// Steps are in dependency order: all of a rank's receives for the
    /// reduce phase precede its reduce send, which precedes any bcast
    /// step — the order the sequential offload engine relies on.
    #[test]
    fn steps_are_in_dependency_order() {
        for n in [4u32, 13, 32] {
            for me in 0..n {
                let s = steps(CollOp::Allreduce, me, n, 0, 32, 3);
                let up = ctag(3, 1);
                let mut seen_up_send = false;
                let mut seen_down = false;
                for st in s {
                    if st.tag == up {
                        assert!(!seen_down, "up-phase step after down phase");
                        if st.dir == Dir::Send {
                            seen_up_send = true;
                        } else {
                            assert!(!seen_up_send, "child recv after parent send");
                        }
                    } else {
                        seen_down = true;
                    }
                }
            }
        }
    }
}
