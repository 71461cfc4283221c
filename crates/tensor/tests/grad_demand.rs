//! Demand-gated backward: freezing leaves changes which gradients are
//! computed, never their bits.
//!
//! For every op whose backward closure gates its work on which inputs
//! require a gradient, each case builds the same scalar loss once with every
//! leaf trainable and once per proper subset of frozen leaves. Every
//! gradient still read must be `to_bits()`-equal to the all-trainable one,
//! and every frozen leaf must hold no gradient. Leaves are frozen both
//! before the forward pass (the op records a pruned closure) and between
//! forward and backward (the closure sees the flag at backward time). Two
//! finite-difference checks cover the conv's input-only and weight-only
//! backward.

use cae_tensor::conv::Conv2dSpec;
use cae_tensor::gradcheck::check_gradients;
use cae_tensor::rng::TensorRng;
use cae_tensor::{Tensor, Var};

/// When a frozen leaf is frozen relative to the forward pass.
#[derive(Debug, Clone, Copy)]
enum FreezeAt {
    BeforeForward,
    BeforeBackward,
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A random weighted sum of `y`, so every output element gets a distinct
/// upstream gradient.
fn weighted_sum(y: &Var, rng: &mut TensorRng) -> Var {
    let r = rng.normal_tensor(&y.dims(), 0.0, 1.0);
    y.mul_const(&r).sum_all()
}

/// Runs `loss` over leaves built from `inputs`, with leaf `i` trainable iff
/// `mask` bit `i` is set, and returns each leaf's gradient.
fn grads(
    inputs: &[Tensor],
    mask: usize,
    at: FreezeAt,
    loss: &dyn Fn(&[Var]) -> Var,
) -> Vec<Option<Tensor>> {
    let leaves: Vec<Var> = inputs.iter().map(|t| Var::parameter(t.clone())).collect();
    let freeze = || {
        for (i, leaf) in leaves.iter().enumerate() {
            if mask & (1 << i) == 0 {
                leaf.set_requires_grad(false);
            }
        }
    };
    if let FreezeAt::BeforeForward = at {
        freeze();
    }
    let l = loss(&leaves);
    if let FreezeAt::BeforeBackward = at {
        freeze();
    }
    l.backward();
    leaves.iter().map(Var::grad).collect()
}

/// The gradient-demand contract for one case: `loss` must be a
/// deterministic function of the leaf values.
fn assert_demand_invariant(label: &str, inputs: &[Tensor], loss: &dyn Fn(&[Var]) -> Var) {
    let all = (1usize << inputs.len()) - 1;
    let reference = grads(inputs, all, FreezeAt::BeforeForward, loss);
    for (i, g) in reference.iter().enumerate() {
        assert!(
            g.is_some(),
            "{label}: leaf {i} has no gradient when all are trainable"
        );
    }
    for at in [FreezeAt::BeforeForward, FreezeAt::BeforeBackward] {
        for mask in 0..all {
            let got = grads(inputs, mask, at, loss);
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                let case = format!("{label} mask {mask:#b} {at:?} leaf {i}");
                if mask & (1 << i) == 0 {
                    assert!(g.is_none(), "{case}: frozen leaf holds a gradient");
                } else {
                    let (g, r) = (g.as_ref().expect("trainable leaf"), r.as_ref().unwrap());
                    assert_eq!(bits(g), bits(r), "{case}: gradient bits differ");
                }
            }
        }
    }
}

#[test]
fn conv2d_gradients_do_not_depend_on_which_leaves_are_frozen() {
    let mut rng = TensorRng::seed_from(1);
    for bias in [false, true] {
        for kernel in [1, 3] {
            for stride in [1, 2] {
                for padding in [0, 1] {
                    let spec = Conv2dSpec::new(kernel, stride, padding);
                    let mut inputs = vec![
                        rng.normal_tensor(&[2, 3, 6, 5], 0.0, 1.0),
                        rng.normal_tensor(&[4, 3, kernel, kernel], 0.0, 0.5),
                    ];
                    if bias {
                        inputs.push(rng.normal_tensor(&[4], 0.0, 0.5));
                    }
                    let seed = rng.index(1 << 20) as u64;
                    assert_demand_invariant(
                        &format!("conv2d bias={bias} {spec:?}"),
                        &inputs,
                        &|v: &[Var]| {
                            let y = v[0].conv2d(&v[1], v.get(2), spec);
                            weighted_sum(&y, &mut TensorRng::seed_from(seed))
                        },
                    );
                }
            }
        }
    }
}

#[test]
fn conv2d_multi_chunk_backward_keeps_its_bits_under_freezing() {
    // Large enough for the fixed-chunk parallel backward.
    let mut rng = TensorRng::seed_from(2);
    let inputs = vec![
        rng.normal_tensor(&[8, 8, 12, 12], 0.0, 1.0),
        rng.normal_tensor(&[16, 8, 3, 3], 0.0, 0.3),
        rng.normal_tensor(&[16], 0.0, 0.3),
    ];
    assert_demand_invariant("conv2d multi-chunk", &inputs, &|v: &[Var]| {
        let y = v[0].conv2d(&v[1], Some(&v[2]), Conv2dSpec::new(3, 1, 1));
        weighted_sum(&y, &mut TensorRng::seed_from(3))
    });
}

#[test]
fn matrix_op_gradients_do_not_depend_on_which_leaves_are_frozen() {
    let mut rng = TensorRng::seed_from(4);
    let (a, b, bt) = (
        rng.normal_tensor(&[5, 7], 0.0, 1.0),
        rng.normal_tensor(&[7, 3], 0.0, 1.0),
        rng.normal_tensor(&[3, 7], 0.0, 1.0),
    );
    assert_demand_invariant("matmul", &[a.clone(), b], &|v: &[Var]| {
        weighted_sum(&v[0].matmul(&v[1]), &mut TensorRng::seed_from(5))
    });
    assert_demand_invariant("matmul_nt", &[a, bt], &|v: &[Var]| {
        weighted_sum(&v[0].matmul_nt(&v[1]), &mut TensorRng::seed_from(6))
    });
    let (x, bias) = (
        rng.normal_tensor(&[4, 6], 0.0, 1.0),
        rng.normal_tensor(&[6], 0.0, 1.0),
    );
    assert_demand_invariant("add_rows", &[x, bias], &|v: &[Var]| {
        weighted_sum(&v[0].add_rows(&v[1]), &mut TensorRng::seed_from(7))
    });
}

#[test]
fn channel_op_gradients_do_not_depend_on_which_leaves_are_frozen() {
    let mut rng = TensorRng::seed_from(8);
    let x = rng.normal_tensor(&[3, 4, 5, 3], 0.0, 1.0);
    let s = rng.normal_tensor(&[4], 1.0, 0.5);
    assert_demand_invariant("mul_channels", &[x.clone(), s.clone()], &|v: &[Var]| {
        weighted_sum(&v[0].mul_channels(&v[1]), &mut TensorRng::seed_from(9))
    });
    assert_demand_invariant("add_channels", &[x, s], &|v: &[Var]| {
        weighted_sum(&v[0].add_channels(&v[1]), &mut TensorRng::seed_from(10))
    });
}

#[test]
fn fused_batch_norm_gradients_do_not_depend_on_which_leaves_are_frozen() {
    let mut rng = TensorRng::seed_from(11);
    let inputs = vec![
        rng.normal_tensor(&[4, 3, 5, 5], 0.5, 2.0),
        rng.normal_tensor(&[3], 1.0, 0.3),
        rng.normal_tensor(&[3], 0.0, 0.3),
    ];
    // Training mode, with the batch statistics also read by a second
    // consumer (as the BN-statistics loss reads them).
    assert_demand_invariant("batch norm, batch statistics", &inputs, &|v: &[Var]| {
        let mut r = TensorRng::seed_from(12);
        let mean = v[0].mean_channels();
        let var = v[0].channel_var(&mean);
        let inv_std = var.add_scalar(1e-5).powf(-0.5);
        let y = v[0].channel_norm(&mean, &inv_std, &v[1], &v[2]);
        weighted_sum(&y, &mut r)
            .add(&weighted_sum(&mean, &mut r))
            .add(&weighted_sum(&var, &mut r))
    });
    // Evaluation mode: constant running statistics.
    let (rm, rs) = (
        rng.normal_tensor(&[3], 0.0, 1.0),
        rng.normal_tensor(&[3], 1.0, 0.2),
    );
    assert_demand_invariant("batch norm, running statistics", &inputs, &|v: &[Var]| {
        let (mean, inv_std) = (Var::constant(rm.clone()), Var::constant(rs.clone()));
        let y = v[0].channel_norm(&mean, &inv_std, &v[1], &v[2]);
        weighted_sum(&y, &mut TensorRng::seed_from(13))
    });
}

#[test]
fn conv2d_input_only_backward_matches_finite_differences() {
    let mut rng = TensorRng::seed_from(14);
    let x = Var::parameter(rng.normal_tensor(&[2, 2, 5, 5], 0.0, 1.0));
    let w = Var::parameter(rng.normal_tensor(&[3, 2, 3, 3], 0.0, 0.4));
    let b = Var::parameter(rng.normal_tensor(&[3], 0.0, 0.4));
    w.set_requires_grad(false);
    b.set_requires_grad(false);
    let r = check_gradients(std::slice::from_ref(&x), 1e-3, || {
        x.conv2d(&w, Some(&b), Conv2dSpec::new(3, 2, 1))
            .square()
            .mean_all()
    });
    assert!(r.passes(2e-2), "max rel err {}", r.max_rel_err);
    assert!(w.grad().is_none() && b.grad().is_none());
}

#[test]
fn conv2d_weight_only_backward_matches_finite_differences() {
    let mut rng = TensorRng::seed_from(15);
    let x = Var::constant(rng.normal_tensor(&[2, 2, 5, 5], 0.0, 1.0));
    let w = Var::parameter(rng.normal_tensor(&[3, 2, 3, 3], 0.0, 0.4));
    let b = Var::parameter(rng.normal_tensor(&[3], 0.0, 0.4));
    let r = check_gradients(&[w.clone(), b.clone()], 1e-3, || {
        x.conv2d(&w, Some(&b), Conv2dSpec::new(3, 1, 1))
            .square()
            .mean_all()
    });
    assert!(r.passes(2e-2), "max rel err {}", r.max_rel_err);
}

#[test]
#[should_panic(expected = "only leaves can be frozen")]
fn interior_nodes_cannot_be_frozen() {
    let x = Var::parameter(Tensor::ones(&[2]));
    x.scale(2.0).set_requires_grad(false);
}
