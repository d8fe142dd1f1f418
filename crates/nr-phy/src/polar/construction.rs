//! Polar code construction: reliability ordering by β-expansion.
//!
//! The polarization weight of input index `i` with binary expansion
//! `b_{n-1}…b_0` is `W(i) = Σ_j b_j · β^j` with `β = 2^{1/4}` — the method
//! the 3GPP universal reliability sequence was derived from (Huawei
//! R1-1708833). Larger weight ⇒ more reliable synthetic channel.
//!
//! The weight of an index does not depend on the code length, so the
//! order is nested: the order for any `n` is the order for [`N_MAX`]
//! restricted to indices below `n`. It is sorted once per process.

use super::ratematch::N_MAX_DCI;
use std::sync::OnceLock;

/// Largest mother code length the order is built for (`2^N_MAX_DCI`).
pub const N_MAX: usize = 1 << N_MAX_DCI;

/// Polarization weight of one index.
pub fn polarization_weight(index: usize) -> f64 {
    let beta = 2f64.powf(0.25);
    let mut w = 0.0;
    let mut bit = 0u32;
    let mut v = index;
    while v != 0 {
        if v & 1 == 1 {
            w += beta.powi(bit as i32);
        }
        v >>= 1;
        bit += 1;
    }
    w
}

/// Indices `0..N_MAX` by ascending reliability, computed once per process.
///
/// The order is *nested*: `polarization_weight(i)` does not depend on the
/// code length, so sorting `0..n` by the same total order (weight, then
/// index) yields exactly the subsequence of this order below `n`. Every
/// `n ≤ N_MAX` therefore reads its order from this one sort.
fn nested_order() -> &'static [u16] {
    static ORDER: OnceLock<Vec<u16>> = OnceLock::new();
    ORDER.get_or_init(|| {
        let weights: Vec<f64> = (0..N_MAX).map(polarization_weight).collect();
        let mut idx: Vec<u16> = (0..N_MAX as u16).collect();
        idx.sort_by(|&a, &b| {
            weights[a as usize]
                .total_cmp(&weights[b as usize])
                .then(a.cmp(&b))
        });
        idx
    })
}

/// Indices `0..n` by ascending reliability (least reliable first), read
/// from the nested order. Ties (which occur only between identical weights
/// of distinct indices — rare under β-expansion) break by index for
/// determinism.
///
/// Panics if `n > N_MAX`.
pub fn reliability_order(n: usize) -> impl DoubleEndedIterator<Item = usize> {
    assert!(n <= N_MAX, "reliability order covers n <= {N_MAX} (n={n})");
    nested_order()
        .iter()
        .map(|&i| usize::from(i))
        .filter(move |&i| i < n)
}

/// Choose the `k` information positions for a mother code of length `n`,
/// excluding `pre_frozen` positions (forced frozen by rate matching).
/// Returns the positions sorted ascending.
///
/// Panics if fewer than `k` positions remain after pre-freezing.
pub fn info_positions(n: usize, k: usize, pre_frozen: &[usize]) -> Vec<usize> {
    let mut frozen = vec![false; n];
    for &p in pre_frozen {
        frozen[p] = true;
    }
    // Walk from the most reliable end, taking k non-pre-frozen positions.
    let mut picked: Vec<usize> = reliability_order(n)
        .rev()
        .filter(|&p| !frozen[p])
        .take(k)
        .collect();
    assert!(
        picked.len() == k,
        "not enough usable positions: n={n}, k={k}, pre_frozen={}",
        pre_frozen.len()
    );
    picked.sort_unstable();
    picked
}

/// The per-length sort the nested order replaces, kept as the reference
/// the property tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use super::polarization_weight;

    /// All indices `0..n` sorted by ascending reliability, sorted for this
    /// `n` alone.
    pub fn reliability_order(n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| {
            polarization_weight(a)
                .total_cmp(&polarization_weight(b))
                .then(a.cmp(&b))
        });
        idx
    }

    /// [`super::info_positions`] over a given ascending-reliability order.
    pub fn info_positions_in(order: &[usize], k: usize, pre_frozen: &[usize]) -> Vec<usize> {
        let mut frozen = vec![false; order.len()];
        for &p in pre_frozen {
            frozen[p] = true;
        }
        let mut picked: Vec<usize> = order
            .iter()
            .rev()
            .copied()
            .filter(|&p| !frozen[p])
            .take(k)
            .collect();
        assert_eq!(picked.len(), k);
        picked.sort_unstable();
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_is_monotone_in_bit_count_at_same_positions() {
        // Adding a set bit strictly increases the weight.
        assert!(polarization_weight(0b1011) > polarization_weight(0b0011));
        assert!(polarization_weight(0b1111) > polarization_weight(0b0111));
    }

    #[test]
    fn index_zero_is_least_reliable_and_max_is_most() {
        let order: Vec<usize> = reliability_order(64).collect();
        assert_eq!(order[0], 0, "all-frozen index 0 must be least reliable");
        assert_eq!(*order.last().unwrap(), 63, "index N-1 most reliable");
    }

    #[test]
    fn higher_bits_weigh_more() {
        // W(2^j) grows with j, so 32 > 16 > 8 in reliability.
        assert!(polarization_weight(32) > polarization_weight(16));
        assert!(polarization_weight(16) > polarization_weight(8));
    }

    #[test]
    fn order_is_a_permutation() {
        let order: Vec<usize> = reliability_order(128).collect();
        assert_eq!(order.len(), 128);
        let mut seen = vec![false; 128];
        for &i in &order {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn info_positions_respect_pre_frozen() {
        let pf = [60usize, 61, 62, 63];
        let pos = info_positions(64, 16, &pf);
        assert_eq!(pos.len(), 16);
        for p in &pf {
            assert!(!pos.contains(p));
        }
        // Sorted ascending.
        assert!(pos.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn info_positions_prefer_reliable_indices() {
        let pos = info_positions(32, 4, &[]);
        // The four most reliable β-expansion indices of N=32 include 31 and 30.
        assert!(pos.contains(&31));
        assert!(pos.contains(&30));
    }

    #[test]
    fn nested_order_equals_per_length_sort_for_every_length() {
        for n in 1..=N_MAX {
            let nested: Vec<usize> = reliability_order(n).collect();
            assert_eq!(nested, reference::reliability_order(n), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "reliability order covers")]
    fn order_beyond_the_largest_mother_code_panics() {
        let _ = reliability_order(2 * N_MAX);
    }

    #[test]
    #[should_panic(expected = "not enough usable positions")]
    fn over_freezing_panics() {
        let pf: Vec<usize> = (0..64).collect();
        info_positions(64, 1, &pf);
    }
}
