//! Successive-cancellation (SC) and SC-list (SCL) polar decoding.
//!
//! SC is the `O(N log N)` workhorse NR-Scope runs on every PDCCH candidate;
//! SCL trades CPU for coding gain and is exposed for the ablation bench
//! (`DESIGN.md` §ablations). LLR convention: positive ⇔ bit 0.

/// The check-node ("f") update: `f(a,b) = sign(a)·sign(b)·min(|a|,|b|)`
/// (min-sum approximation of the boxplus operator).
#[inline]
fn f_op(a: f32, b: f32) -> f32 {
    a.signum() * b.signum() * a.abs().min(b.abs())
}

/// The bit-node ("g") update: `g(a,b,u) = b + (1-2u)·a`.
#[inline]
fn g_op(a: f32, b: f32, u: u8) -> f32 {
    if u == 0 {
        b + a
    } else {
        b - a
    }
}

/// Plain SC decoding. `llrs.len()` must equal `info_mask.len()` and be a
/// power of two. Returns the decoded input vector `u` (frozen positions are
/// zero).
///
/// Allocates only its outputs and one workspace of `N − 1` LLRs, which
/// holds the child LLRs of every tree level stacked (`N/2`, `N/4`, …, 1).
pub fn sc_decode(llrs: &[f32], info_mask: &[bool]) -> Vec<u8> {
    let n = llrs.len();
    assert_eq!(n, info_mask.len());
    assert!(n.is_power_of_two());
    let mut u = vec![0u8; n];
    let mut x = vec![0u8; n];
    let mut work = vec![0.0f32; n - 1];
    sc_node(llrs, &mut work, info_mask, 0, &mut u, &mut x);
    u
}

/// SC over the subtree whose LLRs are `llrs` and whose first input index
/// is `offset`. The child LLRs go to the head of `work`; the rest of
/// `work` is the deeper levels' space. Fills `u[offset..offset+len]` with
/// decisions and `x[offset..offset+len]` with the re-encoded codeword of
/// this subtree (needed by the parent's g-stage).
fn sc_node(
    llrs: &[f32],
    work: &mut [f32],
    info_mask: &[bool],
    offset: usize,
    u: &mut [u8],
    x: &mut [u8],
) {
    let len = llrs.len();
    if len == 1 {
        let bit = if info_mask[offset] {
            u8::from(llrs[0] < 0.0)
        } else {
            0
        };
        u[offset] = bit;
        x[offset] = bit;
        return;
    }
    let half = len / 2;
    let (child, deeper) = work.split_at_mut(half);
    let (a, b) = llrs.split_at(half);
    // Left child sees f(a_i, b_i).
    for ((c, &ai), &bi) in child.iter_mut().zip(a).zip(b) {
        *c = f_op(ai, bi);
    }
    sc_node(child, deeper, info_mask, offset, u, x);
    // Right child sees g(a_i, b_i, x_left_i).
    for (i, c) in child.iter_mut().enumerate() {
        *c = g_op(a[i], b[i], x[offset + i]);
    }
    sc_node(child, deeper, info_mask, offset + half, u, x);
    // Recombine: x_parent = [x_left ⊕ x_right, x_right].
    for i in 0..half {
        x[offset + i] ^= x[offset + half + i];
    }
}

/// The allocating recursive SC the workspace decoder replaces, kept as the
/// reference the property tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{f_op, g_op};

    /// Plain SC with two fresh child-LLR vectors per tree node.
    pub fn sc_decode(llrs: &[f32], info_mask: &[bool]) -> Vec<u8> {
        let n = llrs.len();
        let mut u = vec![0u8; n];
        let mut x = vec![0u8; n];
        sc_recurse(llrs, info_mask, 0, &mut u, &mut x);
        u
    }

    fn sc_recurse(llrs: &[f32], info_mask: &[bool], offset: usize, u: &mut [u8], x: &mut [u8]) {
        let len = llrs.len();
        if len == 1 {
            let bit = if info_mask[offset] {
                u8::from(llrs[0] < 0.0)
            } else {
                0
            };
            u[offset] = bit;
            x[offset] = bit;
            return;
        }
        let half = len / 2;
        let left_llrs: Vec<f32> = (0..half).map(|i| f_op(llrs[i], llrs[i + half])).collect();
        sc_recurse(&left_llrs, info_mask, offset, u, x);
        let right_llrs: Vec<f32> = (0..half)
            .map(|i| g_op(llrs[i], llrs[i + half], x[offset + i]))
            .collect();
        sc_recurse(&right_llrs, info_mask, offset + half, u, x);
        for i in 0..half {
            x[offset + i] ^= x[offset + half + i];
        }
    }
}

/// One decoding hypothesis in the list decoder.
#[derive(Clone)]
struct Path {
    /// Input decisions made so far (full length, future positions zero).
    u: Vec<u8>,
    /// Path metric (sum of penalties for decisions against the LLR sign);
    /// smaller is better.
    metric: f32,
}

/// SC-list decoding: returns up to `list_size` candidate input vectors,
/// best metric first. `list_size = 1` degenerates to SC.
///
/// This implementation recomputes leaf LLRs per path (O(N²) per path per
/// codeword). For control-channel sizes (N ≤ 512) that costs tens of
/// microseconds and keeps the path-management logic obviously correct; the
/// hot telemetry path uses [`sc_decode`].
pub fn scl_decode(llrs: &[f32], info_mask: &[bool], list_size: usize) -> Vec<Vec<u8>> {
    let n = llrs.len();
    assert_eq!(n, info_mask.len());
    assert!(n.is_power_of_two());
    assert!(list_size >= 1);
    let mut paths = vec![Path {
        u: vec![0u8; n],
        metric: 0.0,
    }];
    for (pos, &is_info) in info_mask.iter().enumerate() {
        let mut next: Vec<Path> = Vec::with_capacity(paths.len() * 2);
        for p in &paths {
            let llr = leaf_llr(llrs, &p.u, pos);
            if !is_info {
                // Frozen: decision forced to zero; penalise disagreement.
                let mut q = p.clone();
                if llr < 0.0 {
                    q.metric += llr.abs();
                }
                next.push(q);
            } else {
                // Fork on both hypotheses.
                let mut q0 = p.clone();
                if llr < 0.0 {
                    q0.metric += llr.abs();
                }
                let mut q1 = p.clone();
                q1.u[pos] = 1;
                if llr > 0.0 {
                    q1.metric += llr;
                }
                next.push(q0);
                next.push(q1);
            }
        }
        next.sort_by(|a, b| a.metric.total_cmp(&b.metric));
        next.truncate(list_size);
        paths = next;
    }
    paths.into_iter().map(|p| p.u).collect()
}

/// LLR of input bit `pos` given earlier decisions in `u`, by direct
/// recursion over the code tree.
fn leaf_llr(llrs: &[f32], u: &[u8], pos: usize) -> f32 {
    let n = llrs.len();
    if n == 1 {
        return llrs[0];
    }
    let half = n / 2;
    if pos < half {
        let child: Vec<f32> = (0..half).map(|i| f_op(llrs[i], llrs[i + half])).collect();
        leaf_llr(&child, &u[..half], pos)
    } else {
        // Need the left subtree's re-encoded bits under the decided prefix.
        let x_left = crate::polar::encode::polar_transform(&u[..half]);
        let child: Vec<f32> = (0..half)
            .map(|i| g_op(llrs[i], llrs[i + half], x_left[i]))
            .collect();
        leaf_llr(&child, &u[half..], pos - half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polar::encode::polar_transform;

    fn to_llrs(bits: &[u8], amp: f32) -> Vec<f32> {
        bits.iter()
            .map(|&b| if b == 0 { amp } else { -amp })
            .collect()
    }

    fn make_mask(n: usize, info: &[usize]) -> Vec<bool> {
        let mut m = vec![false; n];
        for &i in info {
            m[i] = true;
        }
        m
    }

    #[test]
    fn sc_decodes_noiseless_codeword() {
        let n = 64;
        let info: Vec<usize> = (32..64).collect();
        let mask = make_mask(n, &info);
        let mut u = vec![0u8; n];
        for (j, &i) in info.iter().enumerate() {
            u[i] = ((j * 3 + 1) % 2) as u8;
        }
        let x = polar_transform(&u);
        let decoded = sc_decode(&to_llrs(&x, 5.0), &mask);
        assert_eq!(decoded, u);
    }

    #[test]
    fn frozen_positions_always_decode_zero() {
        let n = 32;
        let mask = make_mask(n, &[31]);
        // Garbage LLRs: frozen bits must still come out zero.
        let llrs: Vec<f32> = (0..n)
            .map(|i| if i % 2 == 0 { -3.0 } else { 2.0 })
            .collect();
        let u = sc_decode(&llrs, &mask);
        for (i, &b) in u.iter().enumerate() {
            if i != 31 {
                assert_eq!(b, 0, "frozen bit {i}");
            }
        }
    }

    #[test]
    fn scl_list1_equals_sc() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let n = 64;
        let info: Vec<usize> = (24..64).collect();
        let mask = make_mask(n, &info);
        for _ in 0..20 {
            let llrs: Vec<f32> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let sc = sc_decode(&llrs, &mask);
            let scl = scl_decode(&llrs, &mask, 1);
            assert_eq!(scl[0], sc);
        }
    }

    #[test]
    fn scl_candidates_are_metric_sorted_and_distinct() {
        let n = 32;
        let info: Vec<usize> = (16..32).collect();
        let mask = make_mask(n, &info);
        let llrs: Vec<f32> = (0..n).map(|i| ((i as f32 * 0.77).sin()) * 2.0).collect();
        let cands = scl_decode(&llrs, &mask, 8);
        assert_eq!(cands.len(), 8);
        for i in 0..cands.len() {
            for j in i + 1..cands.len() {
                assert_ne!(cands[i], cands[j], "duplicate path");
            }
        }
    }

    #[test]
    fn workspace_sc_equals_reference_on_random_llrs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        for log_n in 0..=9 {
            let n = 1usize << log_n;
            for trial in 0..40 {
                let mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
                let llrs: Vec<f32> = (0..n)
                    .map(|i| match (trial + i) % 7 {
                        0 => 0.0,
                        1 => 1.0e9,
                        _ => rng.gen_range(-8.0..8.0),
                    })
                    .collect();
                assert_eq!(
                    sc_decode(&llrs, &mask),
                    reference::sc_decode(&llrs, &mask),
                    "n={n} trial={trial}"
                );
            }
        }
    }

    #[test]
    fn f_and_g_operators() {
        assert_eq!(f_op(2.0, -3.0), -2.0);
        assert_eq!(f_op(-1.0, -4.0), 1.0);
        assert_eq!(g_op(2.0, 3.0, 0), 5.0);
        assert_eq!(g_op(2.0, 3.0, 1), 1.0);
    }
}
