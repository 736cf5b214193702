//! Property-based tests for the neural substrate's algebra.

use proptest::prelude::*;
use taxo_nn::{losses, softmax_in_place, Matrix};

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #[test]
    fn matmul_is_associative(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
        c in small_matrix(2, 5),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
        c in small_matrix(4, 2),
    ) {
        let mut sum = b.clone();
        sum.add_assign(&c);
        let left = a.matmul(&sum);
        let mut right = a.matmul(&b);
        right.add_assign(&a.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_is_involutive(a in small_matrix(4, 6)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_nt_matches_transpose(a in small_matrix(3, 5), b in small_matrix(4, 5)) {
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_tn_matches_transpose(a in small_matrix(5, 3), b in small_matrix(5, 4)) {
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_is_a_distribution(mut xs in proptest::collection::vec(-20.0f32..20.0, 1..16)) {
        softmax_in_place(&mut xs);
        let sum: f32 = xs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
        prop_assert!(xs.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn softmax_preserves_order(xs in proptest::collection::vec(-5.0f32..5.0, 2..10)) {
        let mut sm = xs.clone();
        softmax_in_place(&mut sm);
        for i in 0..xs.len() {
            for j in 0..xs.len() {
                if xs[i] > xs[j] {
                    prop_assert!(sm[i] >= sm[j]);
                }
            }
        }
    }

    #[test]
    fn xent_loss_bounded_below_by_zero(
        data in proptest::collection::vec(-5.0f32..5.0, 12),
        target in 0usize..4,
    ) {
        let mut dlogits = Matrix::from_vec(3, 4, data);
        let loss = losses::softmax_xent_in_place(&mut dlogits, &[target, 0, 3]);
        prop_assert!(loss >= 0.0);
        // Each gradient row sums to ~0.
        for r in 0..3 {
            let s: f32 = dlogits.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn hstack_vstack_round_trip(a in small_matrix(3, 2), b in small_matrix(3, 4)) {
        let h = Matrix::hstack(&[&a, &b]);
        prop_assert_eq!(h.rows(), 3);
        prop_assert_eq!(h.cols(), 6);
        // Slicing the rows back out preserves content.
        for r in 0..3 {
            prop_assert_eq!(&h.row(r)[..2], a.row(r));
            prop_assert_eq!(&h.row(r)[2..], b.row(r));
        }
        let v = Matrix::vstack(&[&a, &a]);
        prop_assert_eq!(v.rows(), 6);
        prop_assert_eq!(v.slice_rows(3, 3), a);
    }

    #[test]
    fn sum_rows_is_adjoint_of_broadcast(
        x in small_matrix(4, 3),
        bias in small_matrix(1, 3),
    ) {
        // <x + 1·b, y> relationship: check Σ(broadcast) == rows * bias.
        let mut z = Matrix::zeros(4, 3);
        z.add_row_broadcast(&bias);
        let summed = z.sum_rows();
        for c in 0..3 {
            prop_assert!((summed[(0, c)] - 4.0 * bias[(0, c)]).abs() < 1e-4);
        }
        // And sum_rows is linear.
        let mut xy = x.clone();
        xy.add_assign(&z);
        let lhs = xy.sum_rows();
        let mut rhs = x.sum_rows();
        rhs.add_assign(&summed);
        for c in 0..3 {
            prop_assert!((lhs[(0, c)] - rhs[(0, c)]).abs() < 1e-4);
        }
    }
}
