//! Reverse-mode automatic differentiation.
//!
//! [`Var`] wraps a [`Tensor`] in an atomically reference-counted graph
//! node. Operations on `Var`s compute their value eagerly and record a
//! backward closure; [`Var::backward`] replays the closures in reverse
//! creation order, accumulating gradients into leaves created with
//! [`Var::parameter`].
//!
//! Gradients are computed only where someone reads them. A leaf can be
//! frozen with [`Var::set_requires_grad`]; an op whose every input is
//! frozen or constant records no backward closure at all. A closure whose
//! op has a trainable input computes only the gradients of the inputs that
//! require one: a conv behind a frozen weight computes `dx` but not
//! `dW`/`db`, and a conv on a constant input computes `dW`/`db` but not
//! `dx`. Backpropagating into an image through a frozen network therefore
//! costs one input-gradient pass per layer and no weight-gradient work.
//! Skipping a gradient never changes one that is computed: each computed
//! gradient keeps its own FMA chain and accumulation order.
//!
//! Closures borrow their inputs' values through read guards rather than
//! cloning them, and hand each freshly computed gradient to the parent by
//! move.
//!
//! # Threading model
//!
//! `Var` is `Send + Sync`: node ids come from a process-global atomic
//! counter, values sit behind an `RwLock` and gradients behind a `Mutex`,
//! so whole experiment cells (each owning its own models and tapes) can run
//! on different threads of the [`crate::pool`]. Ids are strictly increasing
//! in program order on each thread, so within any single-threaded tape the
//! descending-id ordering used by [`Var::backward`] remains a valid reverse
//! topological order regardless of what other threads allocate in between.

mod conv;
mod elementwise;
mod linalg;
mod reduce;
mod structure;

use crate::tensor::Tensor;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Backward closure: receives the output gradient (by value) and the parent
/// nodes and accumulates into each parent that requires a gradient.
pub(crate) type BackwardFn = Box<dyn Fn(Tensor, &[Var]) + Send + Sync>;

pub(crate) struct VarNode {
    id: u64,
    value: RwLock<Tensor>,
    grad: Mutex<Option<Tensor>>,
    /// Fixed at construction for op outputs; leaves may flip it with
    /// [`Var::set_requires_grad`]. `Relaxed` suffices: the flag guards no
    /// other data, and a model's flags are set by the thread that runs its
    /// tape.
    requires_grad: AtomicBool,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
}

/// A node in the autograd graph: a tensor value plus optional gradient
/// bookkeeping. Cloning a `Var` is cheap (reference-counted), and `Var` is
/// `Send + Sync` so independent graphs can live on different threads.
///
/// ```
/// use cae_tensor::{Tensor, Var};
/// let x = Var::parameter(Tensor::scalar(3.0));
/// let y = x.square().scale(2.0); // y = 2x²
/// y.backward();
/// assert_eq!(x.grad().unwrap().item(), 12.0);
/// ```
#[derive(Clone)]
pub struct Var(pub(crate) Arc<VarNode>);

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.0.id)
            .field("shape", &self.value().shape().dims())
            .field("requires_grad", &self.requires_grad())
            .finish()
    }
}

impl Var {
    /// Wraps a tensor as a non-differentiable constant.
    pub fn constant(value: Tensor) -> Var {
        Var(Arc::new(VarNode {
            id: next_id(),
            value: RwLock::new(value),
            grad: Mutex::new(None),
            requires_grad: AtomicBool::new(false),
            parents: Vec::new(),
            backward: None,
        }))
    }

    /// Wraps a tensor as a trainable leaf that accumulates gradients.
    pub fn parameter(value: Tensor) -> Var {
        Var(Arc::new(VarNode {
            id: next_id(),
            value: RwLock::new(value),
            grad: Mutex::new(None),
            requires_grad: AtomicBool::new(true),
            parents: Vec::new(),
            backward: None,
        }))
    }

    /// Builds an interior node. If no parent requires a gradient the backward
    /// closure is dropped and the node degenerates to a constant.
    pub(crate) fn from_op(value: Tensor, parents: Vec<Var>, backward: BackwardFn) -> Var {
        let requires = parents.iter().any(Var::requires_grad);
        Var(Arc::new(VarNode {
            id: next_id(),
            value: RwLock::new(value),
            grad: Mutex::new(None),
            requires_grad: AtomicBool::new(requires),
            parents: if requires { parents } else { Vec::new() },
            backward: if requires { Some(backward) } else { None },
        }))
    }

    /// Unique node id (creation order). Useful as an optimizer state key.
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Whether this node participates in gradient computation.
    pub fn requires_grad(&self) -> bool {
        self.0.requires_grad.load(Ordering::Relaxed)
    }

    /// Freezes (`false`) or unfreezes (`true`) a leaf. A frozen leaf
    /// accumulates no gradient, and ops built only from frozen or constant
    /// inputs record no backward closure. Freeze before the forward pass to
    /// prune the graph; a leaf frozen between forward and backward still
    /// receives nothing.
    ///
    /// # Panics
    /// Panics if this node is the output of a differentiable op: its flag
    /// follows its inputs.
    pub fn set_requires_grad(&self, requires_grad: bool) {
        assert!(
            self.0.backward.is_none(),
            "set_requires_grad on node {}: only leaves can be frozen or unfrozen",
            self.0.id
        );
        self.0.requires_grad.store(requires_grad, Ordering::Relaxed);
    }

    /// Borrows the tensor value (a shared read lock).
    ///
    /// # Panics
    /// Panics if the value lock is poisoned (a writer panicked), which is
    /// not possible through the public API.
    pub fn value(&self) -> RwLockReadGuard<'_, Tensor> {
        self.0.value.read().expect("Var value lock poisoned")
    }

    /// Clones the tensor value out of the node.
    pub fn to_tensor(&self) -> Tensor {
        self.value().clone()
    }

    /// Shape dimensions of the value.
    pub fn dims(&self) -> Vec<usize> {
        self.value().shape().dims().to_vec()
    }

    /// Extracts a scalar value.
    ///
    /// # Panics
    /// Panics if the value holds more than one element.
    pub fn item(&self) -> f32 {
        self.value().item()
    }

    /// Replaces the stored value (used by optimizers; the graph is not
    /// replayed, so only call this on leaves between steps).
    pub fn set_value(&self, value: Tensor) {
        *self.0.value.write().expect("Var value lock poisoned") = value;
    }

    /// Mutates the stored value in place (used by optimizers).
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.0.value.write().expect("Var value lock poisoned"));
    }

    /// Returns the accumulated gradient, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.0.grad.lock().expect("Var grad lock poisoned").clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.0.grad.lock().expect("Var grad lock poisoned") = None;
    }

    /// Removes and returns the accumulated gradient.
    pub fn take_grad(&self) -> Option<Tensor> {
        self.0.grad.lock().expect("Var grad lock poisoned").take()
    }

    /// Returns a constant `Var` sharing this node's current value (cuts the
    /// graph).
    pub fn detach(&self) -> Var {
        Var::constant(self.to_tensor())
    }

    /// Accumulates `g` into this node's gradient buffer; the first gradient
    /// moves in.
    pub(crate) fn accum(&self, g: Tensor) {
        if !self.requires_grad() {
            return;
        }
        let mut slot = self.0.grad.lock().expect("Var grad lock poisoned");
        match slot.as_mut() {
            Some(existing) => existing.add_assign_scaled(&g, 1.0),
            None => *slot = Some(g),
        }
    }

    /// Runs reverse-mode differentiation from this node, seeding with a
    /// gradient of ones (for the common scalar-loss case this is `1.0`).
    ///
    /// Gradients accumulate into every reachable [`Var::parameter`] leaf;
    /// call [`Var::zero_grad`] (or an optimizer's `zero_grad`) between steps.
    pub fn backward(&self) {
        if !self.requires_grad() {
            return;
        }
        let seed = {
            let v = self.value();
            Tensor::full(v.shape().dims(), 1.0)
        };
        self.backward_with(seed);
    }

    /// Runs reverse-mode differentiation with an explicit seed gradient.
    ///
    /// # Panics
    /// Panics if `seed`'s shape differs from this node's value shape.
    pub fn backward_with(&self, seed: Tensor) {
        assert_eq!(
            seed.shape(),
            self.value().shape(),
            "backward seed shape must match the output shape"
        );
        self.accum(seed);

        // Collect the reachable subgraph that requires gradients.
        let mut nodes: Vec<Var> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut stack: Vec<Var> = vec![self.clone()];
        while let Some(v) = stack.pop() {
            if !v.requires_grad() || !seen.insert(v.0.id) {
                continue;
            }
            for p in &v.0.parents {
                stack.push(p.clone());
            }
            nodes.push(v);
        }
        // Edges always point to earlier ids, so descending-id order is a
        // valid reverse topological order.
        nodes.sort_by_key(|n| std::cmp::Reverse(n.0.id));

        for node in &nodes {
            let Some(backward) = node.0.backward.as_ref() else {
                continue;
            };
            // Interior nodes consume their gradient; leaves keep theirs. A
            // node whose inputs were all frozen after it was built has no
            // gradient to pass on.
            let grad = node.0.grad.lock().expect("Var grad lock poisoned").take();
            if let Some(g) = grad {
                if node.0.parents.iter().any(Var::requires_grad) {
                    backward(g, &node.0.parents);
                }
            }
        }
    }
}

/// Runs `f` on the values of `a` and `b` under read guards. When both are
/// the same node (`x.mul(&x)`) it takes a single guard: std's `RwLock` does
/// not promise that one thread may hold two read guards on one lock.
pub(crate) fn with_values<R>(a: &Var, b: &Var, f: impl FnOnce(&Tensor, &Tensor) -> R) -> R {
    if Arc::ptr_eq(&a.0, &b.0) {
        let v = a.value();
        f(&v, &v)
    } else {
        f(&a.value(), &b.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_graph_skips_backward_machinery() {
        let a = Var::constant(Tensor::scalar(2.0));
        let b = Var::constant(Tensor::scalar(3.0));
        let c = a.mul(&b);
        assert!(!c.requires_grad());
        c.backward(); // no-op, must not panic
        assert!(a.grad().is_none());
    }

    #[test]
    fn chain_rule_through_shared_subexpression() {
        // y = (x * x) + (x * x); dy/dx = 4x.
        let x = Var::parameter(Tensor::scalar(3.0));
        let sq = x.mul(&x);
        let y = sq.add(&sq);
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 12.0);
    }

    #[test]
    fn ops_with_one_node_as_both_parents_backpropagate() {
        // Both parents are the same node, so the borrowing closures must take
        // a single read guard on its value.
        let x = Var::parameter(Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap());
        x.mul(&x).sum_all().backward();
        assert_eq!(x.take_grad().unwrap().data(), &[2.0, -4.0, 6.0]);
        x.add(&x).sum_all().backward();
        assert_eq!(x.take_grad().unwrap().data(), &[2.0; 3]);
        x.sub(&x).sum_all().backward();
        assert_eq!(x.take_grad().unwrap().data(), &[0.0; 3]);

        // sum(X Xᵀ) = Σ_ij <x_i, x_j>; its gradient is 2 Σ_j x_j per row.
        let m = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        m.matmul_nt(&m).sum_all().backward();
        assert_eq!(m.take_grad().unwrap().data(), &[8.0, 12.0, 8.0, 12.0]);
        let c = Var::concat0(&[m.clone(), m.clone()]);
        assert_eq!(c.dims(), vec![4, 2]);
        c.sum_all().backward();
        assert_eq!(m.take_grad().unwrap().data(), &[2.0; 4]);
    }

    #[test]
    fn frozen_leaves_prune_the_graph_and_receive_nothing() {
        let w = Var::parameter(Tensor::scalar(2.0));
        let x = Var::parameter(Tensor::scalar(3.0));
        w.set_requires_grad(false);
        assert!(
            !w.square().requires_grad(),
            "an op on frozen leaves is a constant"
        );
        x.mul(&w).backward();
        assert_eq!(x.grad().unwrap().item(), 2.0);
        assert!(w.grad().is_none());
        w.set_requires_grad(true);
        x.mul(&w).backward();
        assert_eq!(w.grad().unwrap().item(), 3.0);
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let x = Var::parameter(Tensor::scalar(1.0));
        let y = x.scale(2.0);
        y.backward();
        let y2 = x.scale(2.0);
        y2.backward();
        assert_eq!(x.grad().unwrap().item(), 4.0);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn var_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Var>();
        assert_send_sync::<Tensor>();
    }

    #[test]
    fn graphs_built_on_other_threads_backpropagate() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let x = Var::parameter(Tensor::scalar(t as f32 + 1.0));
                    let y = x.square().scale(3.0); // dy/dx = 6x
                    y.backward();
                    x.grad().unwrap().item()
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), 6.0 * (t as f32 + 1.0));
        }
    }

    #[test]
    fn detach_cuts_the_graph() {
        let x = Var::parameter(Tensor::scalar(5.0));
        let y = x.square().detach().scale(3.0);
        y.backward();
        assert!(x.grad().is_none());
        assert_eq!(y.item(), 75.0);
    }
}
