//! The correctness oracles. Neither uses the encode kernel or the
//! batch accumulator: the zero check needs no arithmetic at all, and the
//! reference fold converts one value at a time with the paper's Listing 1
//! and adds limbs with a carry chain written here.

use oisum_core::convert::encode_listing1;

/// HP(6,3) limbs, most significant first — the service's format.
pub type Limbs = [u64; 6];

/// `acc += x` modulo `2^384`, carrying from the least significant limb.
pub fn wrapping_add(acc: &mut Limbs, x: &Limbs) {
    let mut carry = false;
    for i in (0..acc.len()).rev() {
        let (s1, c1) = acc[i].overflowing_add(x[i]);
        let (s2, c2) = s1.overflowing_add(carry as u64);
        acc[i] = s2;
        carry = c1 || c2;
    }
}

/// Folds `xs` into `acc` value by value with Listing 1.
pub fn fold(acc: &mut Limbs, xs: &[f64]) {
    for &x in xs {
        wrapping_add(acc, &encode_listing1::<6, 3>(x));
    }
}

pub fn listing1_sum(xs: &[f64]) -> Limbs {
    let mut acc = [0; 6];
    fold(&mut acc, xs);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carries_ripple_across_limbs() {
        let mut a = [0, 0, 0, 0, u64::MAX, u64::MAX];
        wrapping_add(&mut a, &[0, 0, 0, 0, 0, 1]);
        assert_eq!(a, [0, 0, 0, 1, 0, 0]);
    }

    #[test]
    fn a_value_and_its_negation_cancel() {
        let xs = [0.375, -1e30, 1e30, -0.375, 2f64.powi(-90)];
        let mut acc = listing1_sum(&xs);
        fold(&mut acc, &[-(2f64.powi(-90))]);
        assert_eq!(acc, [0; 6]);
    }
}
