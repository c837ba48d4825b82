//! Reverse-mode automatic differentiation.
//!
//! A [`Tensor`] wraps an [`NdArray`] value in a shared graph node. Operations
//! build the computation graph eagerly; [`Tensor::backward`] runs a
//! topological sweep that accumulates gradients into every node that
//! requires them. Graphs are rebuilt every training step, so node storage is
//! transient and needs no explicit freeing.
//!
//! The engine is deliberately single-threaded (`Rc` + `RefCell`): prediction
//! contexts in HIRE are small (tens of users/items), and the simplicity pays
//! for itself in auditability. Cross-model parallelism, when needed, runs
//! one graph per thread.

use crate::linalg;
use crate::ndarray::NdArray;
use crate::scratch::Scratch;
use crate::shape::Shape;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// An op's backward pass: from the gradient of the op's output and the
/// op's parents, the gradient contribution for each parent, in parent order
/// (`None`: nothing flows to that parent). See [`Tensor::from_op`].
pub type BackwardFn = Box<dyn Fn(&NdArray, &[Tensor]) -> Vec<Option<NdArray>>>;

thread_local! {
    static NEXT_ID: RefCell<u64> = const { RefCell::new(0) };
}

fn fresh_id() -> u64 {
    NEXT_ID.with(|c| {
        let mut c = c.borrow_mut();
        *c += 1;
        *c
    })
}

struct Node {
    id: u64,
    value: RefCell<NdArray>,
    grad: RefCell<Option<NdArray>>,
    requires_grad: bool,
    parents: Vec<Tensor>,
    backward: Option<BackwardFn>,
}

/// A node in the autograd graph. Cloning is cheap (shared pointer).
#[derive(Clone)]
pub struct Tensor {
    node: Rc<Node>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// A leaf that participates in gradient computation (a model parameter).
    pub fn parameter(value: NdArray) -> Tensor {
        Tensor::leaf(value, true)
    }

    /// A leaf excluded from gradient computation (input data).
    pub fn constant(value: NdArray) -> Tensor {
        Tensor::leaf(value, false)
    }

    /// A scalar constant.
    pub fn scalar(v: f32) -> Tensor {
        Tensor::constant(NdArray::scalar(v))
    }

    fn leaf(value: NdArray, requires_grad: bool) -> Tensor {
        Tensor {
            node: Rc::new(Node {
                id: fresh_id(),
                value: RefCell::new(value),
                grad: RefCell::new(None),
                requires_grad,
                parents: Vec::new(),
                backward: None,
            }),
        }
    }

    /// A node computed from `parents` by an op this module does not know:
    /// `value` is the op's output and `backward` its hand-written backward
    /// pass. Every op above is built through this constructor; it is public
    /// so that a fused op can live beside its kernels' callers (`hire-nn`'s
    /// MHSA is one node over `hire_tensor::linalg` kernels) instead of as a
    /// chain of nodes here.
    ///
    /// The node requires grad iff a parent does; otherwise `backward` is
    /// dropped at once, with whatever it captured. During
    /// [`Tensor::backward`] the closure runs once, after every consumer of
    /// the node has contributed, and must return one entry per parent, each
    /// `Some` shaped like that parent's value. Contributions to parents that
    /// do not require grad are discarded, so a closure may skip computing
    /// them (`parents[i].requires_grad()`).
    pub fn from_op(value: NdArray, parents: Vec<Tensor>, backward: BackwardFn) -> Tensor {
        let requires_grad = parents.iter().any(|p| p.requires_grad());
        Tensor {
            node: Rc::new(Node {
                id: fresh_id(),
                value: RefCell::new(value),
                grad: RefCell::new(None),
                requires_grad,
                parents,
                backward: if requires_grad { Some(backward) } else { None },
            }),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Unique node id (creation order).
    pub(crate) fn id(&self) -> u64 {
        self.node.id
    }

    /// Whether gradients flow into this node.
    pub fn requires_grad(&self) -> bool {
        self.node.requires_grad
    }

    /// Copy of the current value.
    pub fn value(&self) -> NdArray {
        self.node.value.borrow().clone()
    }

    /// The value, borrowed without copying until the guard drops (for a
    /// caller that reads many tensors at once; [`Self::with_value`] reads
    /// one). Writing the value while a guard is alive panics.
    pub fn borrow_value(&self) -> std::cell::Ref<'_, NdArray> {
        self.node.value.borrow()
    }

    /// Runs `f` against the value without copying.
    pub fn with_value<R>(&self, f: impl FnOnce(&NdArray) -> R) -> R {
        f(&self.node.value.borrow())
    }

    /// The shape of the value.
    pub fn shape(&self) -> Shape {
        self.node.value.borrow().shape().clone()
    }

    /// Dimension sizes.
    pub fn dims(&self) -> Vec<usize> {
        self.node.value.borrow().dims().to_vec()
    }

    /// Scalar value of a one-element tensor.
    pub fn item(&self) -> f32 {
        self.node.value.borrow().item()
    }

    /// Copy of the accumulated gradient, if any.
    pub fn grad(&self) -> Option<NdArray> {
        self.node.grad.borrow().clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.node.grad.borrow_mut() = None;
    }

    /// Adds `g` into the accumulated gradient (creating it if absent).
    /// Used by first-order meta-learning loops that stash task gradients
    /// and replay them into the outer optimizer.
    pub fn add_to_grad(&self, g: &NdArray) {
        self.accumulate_grad(g.clone());
    }

    /// Mutates the accumulated gradient in place, if present (used for
    /// gradient clipping). No-op when there is no gradient.
    pub fn update_grad(&self, f: impl FnOnce(&mut NdArray)) {
        if let Some(g) = self.node.grad.borrow_mut().as_mut() {
            f(g);
        }
    }

    /// Runs `f` against the gradient without copying; `None` when absent.
    pub fn with_grad<R>(&self, f: impl FnOnce(Option<&NdArray>) -> R) -> R {
        f(self.node.grad.borrow().as_ref())
    }

    /// Overwrites the value in place (used by optimizers; never do this in
    /// the middle of building a graph that already read the old value).
    pub fn set_value(&self, value: NdArray) {
        let mut v = self.node.value.borrow_mut();
        assert_eq!(
            v.shape(),
            value.shape(),
            "set_value shape mismatch: {} vs {}",
            v.shape(),
            value.shape()
        );
        *v = value;
    }

    /// Applies `f` to the raw value buffer in place (optimizer update path).
    pub fn update_value(&self, f: impl FnOnce(&mut NdArray)) {
        f(&mut self.node.value.borrow_mut());
    }

    /// A new constant tensor sharing this tensor's current value (detach).
    pub fn detach(&self) -> Tensor {
        Tensor::constant(self.value())
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Back-propagates from this tensor, seeding with ones (use on scalar
    /// losses; for non-scalars the seed is an implicit sum).
    pub fn backward(&self) {
        self.backward_with(NdArray::ones(self.shape()));
    }

    /// Back-propagates with an explicit output gradient.
    pub fn backward_with(&self, seed: NdArray) {
        assert_eq!(seed.shape(), &self.shape(), "backward seed shape mismatch");
        assert!(self.requires_grad(), "backward on a non-grad tensor");

        // Topological order (children before parents) via iterative DFS.
        let order = self.topo_order();
        self.accumulate_grad(seed);
        for t in order {
            let Some(backward) = t.node.backward.as_ref() else {
                continue;
            };
            // A node is never its own parent, so no closure (and no
            // `accumulate_grad` below) touches this slot while it is lent.
            let grad_out = t.node.grad.borrow();
            let grad_out = grad_out
                .as_ref()
                .expect("topological order guarantees grad is present");
            let contributions = backward(grad_out, &t.node.parents);
            debug_assert_eq!(contributions.len(), t.node.parents.len());
            for (parent, contribution) in t.node.parents.iter().zip(contributions) {
                if let Some(g) = contribution {
                    if parent.requires_grad() {
                        parent.accumulate_grad(g);
                    }
                }
            }
        }
    }

    fn accumulate_grad(&self, g: NdArray) {
        let mut slot = self.node.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => existing.add_assign(&g),
            None => *slot = Some(g),
        }
    }

    /// Nodes reachable from `self` that require grad, children-first.
    fn topo_order(&self) -> Vec<Tensor> {
        let mut order = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        // Iterative post-order DFS; reversed post-order = topological order.
        let mut stack: Vec<(Tensor, usize)> = vec![(self.clone(), 0)];
        visited.insert(self.node.id);
        while let Some((t, child_ix)) = stack.pop() {
            if child_ix < t.node.parents.len() {
                let parent = t.node.parents[child_ix].clone();
                stack.push((t, child_ix + 1));
                if parent.requires_grad() && !visited.contains(&parent.node.id) {
                    visited.insert(parent.node.id);
                    stack.push((parent, 0));
                }
            } else {
                order.push(t);
            }
        }
        order.reverse();
        order
    }

    // ------------------------------------------------------------------
    // Element-wise arithmetic
    // ------------------------------------------------------------------

    /// Element-wise sum with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let value =
            self.with_value(|a| other.with_value(|b| linalg::broadcast_zip(a, b, |x, y| x + y)));
        Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                vec![
                    Some(linalg::reduce_to_shape(g, &parents[0].shape())),
                    Some(linalg::reduce_to_shape(g, &parents[1].shape())),
                ]
            }),
        )
    }

    /// Element-wise difference with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let value =
            self.with_value(|a| other.with_value(|b| linalg::broadcast_zip(a, b, |x, y| x - y)));
        Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                let mut neg = g.clone();
                neg.scale_inplace(-1.0);
                vec![
                    Some(linalg::reduce_to_shape(g, &parents[0].shape())),
                    Some(linalg::reduce_to_shape(&neg, &parents[1].shape())),
                ]
            }),
        )
    }

    /// Element-wise product with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        let value =
            self.with_value(|a| other.with_value(|b| linalg::broadcast_zip(a, b, |x, y| x * y)));
        Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                parents[0].with_value(|a| {
                    parents[1].with_value(|b| {
                        let ga = parents[0].requires_grad().then(|| {
                            let ga = linalg::broadcast_zip(g, b, |gi, bi| gi * bi);
                            linalg::reduce_to_shape(&ga, a.shape())
                        });
                        let gb = parents[1].requires_grad().then(|| {
                            let gb = linalg::broadcast_zip(g, a, |gi, ai| gi * ai);
                            linalg::reduce_to_shape(&gb, b.shape())
                        });
                        vec![ga, gb]
                    })
                })
            }),
        )
    }

    /// Element-wise quotient with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        let value =
            self.with_value(|a| other.with_value(|b| linalg::broadcast_zip(a, b, |x, y| x / y)));
        Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                parents[0].with_value(|a| {
                    parents[1].with_value(|b| {
                        let ga = parents[0].requires_grad().then(|| {
                            let ga = linalg::broadcast_zip(g, b, |gi, bi| gi / bi);
                            linalg::reduce_to_shape(&ga, a.shape())
                        });
                        let gb = parents[1].requires_grad().then(|| {
                            let gb_full = linalg::broadcast_zip(
                                &linalg::broadcast_zip(g, a, |gi, ai| gi * ai),
                                b,
                                |num, bi| -num / (bi * bi),
                            );
                            linalg::reduce_to_shape(&gb_full, b.shape())
                        });
                        vec![ga, gb]
                    })
                })
            }),
        )
    }

    /// Multiplies every element by a constant.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        let value = self.with_value(|a| a.map(|x| x * s));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _| {
                let mut gi = g.clone();
                gi.scale_inplace(s);
                vec![Some(gi)]
            }),
        )
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let value = self.with_value(|a| a.map(|x| x + s));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, _| vec![Some(g.clone())]),
        )
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        self.mul(self)
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Tensor {
        let value = self.with_value(|a| a.map(f32::exp));
        let out = value.clone();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _| vec![Some(g.zip(&out, |gi, yi| gi * yi))]),
        )
    }

    /// `ln(|x| + eps)` — the sign-safe logarithm used by AFN's logarithmic
    /// transformation layer.
    pub fn ln_abs_eps(&self, eps: f32) -> Tensor {
        let value = self.with_value(|a| a.map(|x| (x.abs() + eps).ln()));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                vec![Some(parents[0].with_value(|x| {
                    g.zip(x, |gi, xi| gi * xi.signum() / (xi.abs() + eps))
                }))]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        let value = self.with_value(|a| a.map(|x| 1.0 / (1.0 + (-x).exp())));
        let out = value.clone();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _| vec![Some(g.zip(&out, |gi, yi| gi * yi * (1.0 - yi)))]),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        let value = self.with_value(|a| a.map(f32::tanh));
        let out = value.clone();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _| vec![Some(g.zip(&out, |gi, yi| gi * (1.0 - yi * yi)))]),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        let value = self.with_value(|a| a.map(|x| x.max(0.0)));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                vec![Some(parents[0].with_value(|x| {
                    g.zip(x, |gi, xi| if xi > 0.0 { gi } else { 0.0 })
                }))]
            }),
        )
    }

    /// Gaussian error linear unit (tanh approximation).
    pub fn gelu(&self) -> Tensor {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        let value = self
            .with_value(|a| a.map(|x| 0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                vec![Some(parents[0].with_value(|x| {
                    g.zip(x, |gi, xi| {
                        let inner = C * (xi + 0.044715 * xi * xi * xi);
                        let t = inner.tanh();
                        let dinner = C * (1.0 + 3.0 * 0.044715 * xi * xi);
                        gi * (0.5 * (1.0 + t) + 0.5 * xi * (1.0 - t * t) * dinner)
                    })
                }))]
            }),
        )
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, alpha: f32) -> Tensor {
        let value = self.with_value(|a| a.map(|x| if x > 0.0 { x } else { alpha * x }));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                vec![Some(parents[0].with_value(|x| {
                    g.zip(x, |gi, xi| if xi > 0.0 { gi } else { alpha * gi })
                }))]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Shape ops
    // ------------------------------------------------------------------

    /// Reshape (element count must match).
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let value = self.with_value(|a| a.reshape(shape.clone()));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| vec![Some(g.reshape(parents[0].shape()))]),
        )
    }

    /// Repeats the value along its size-1 (or missing leading) axes up to
    /// `shape`, numpy's broadcasting: the value `mul` by ones of `shape`
    /// would give, and the same gradient — each source element's, summed
    /// in ascending flat order — without the ones or their product.
    pub fn broadcast_to(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let value = self.with_value(|a| linalg::broadcast_to(a, &shape));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| vec![Some(linalg::reduce_to_shape(g, &parents[0].shape()))]),
        )
    }

    /// Axis permutation (numpy `transpose(perm)` semantics).
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let perm_owned = perm.to_vec();
        let value = self.with_value(|a| linalg::permute(a, &perm_owned));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _| {
                vec![Some(linalg::permute(
                    g,
                    &linalg::inverse_permutation(&perm_owned),
                ))]
            }),
        )
    }

    /// Concatenates tensors along the last axis.
    pub fn concat_last(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let values: Vec<_> = parts.iter().map(Tensor::borrow_value).collect();
        let refs: Vec<&NdArray> = values.iter().map(|v| &**v).collect();
        let value = linalg::concat_last(&refs);
        let widths: Vec<usize> = values.iter().map(|v| *v.dims().last().unwrap()).collect();
        drop(refs);
        drop(values);
        Tensor::from_op(
            value,
            parts.to_vec(),
            Box::new(move |g, _| {
                let mut out = Vec::with_capacity(widths.len());
                let mut start = 0;
                for &w in &widths {
                    out.push(Some(linalg::slice_last(g, start, w)));
                    start += w;
                }
                out
            }),
        )
    }

    /// Slices `[start, start+len)` of the last axis.
    pub fn slice_last(&self, start: usize, len: usize) -> Tensor {
        let value = self.with_value(|a| linalg::slice_last(a, start, len));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let p_shape = parents[0].shape();
                let mut full = NdArray::zeros(p_shape.clone());
                let w = *p_shape.dims().last().unwrap();
                let rows = full.numel() / w;
                let dst = full.as_mut_slice();
                let src = g.as_slice();
                for r in 0..rows {
                    dst[r * w + start..r * w + start + len]
                        .copy_from_slice(&src[r * len..(r + 1) * len]);
                }
                vec![Some(full)]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix multiply: 2-D x 2-D, batched x batched, or batched x shared
    /// 2-D rhs (see `linalg::bmm`).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let value = self.with_value(|a| other.with_value(|b| linalg::bmm(a, b)));
        Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                parents[0].with_value(|a| {
                    parents[1].with_value(|b| {
                        // dA = g . B^T ; dB = A^T . g
                        let ga = linalg::bmm_nt(g, b);
                        let gb = if b.shape().rank() == 2 && a.shape().rank() > 2 {
                            // Shared rhs: dB sums over the whole batch, so
                            // flatten the batch into rows of one A^T . g
                            // product.
                            let k = *a.dims().last().unwrap();
                            let m = *g.dims().last().unwrap();
                            let rows = a.numel() / k;
                            linalg::matmul2d_tn(&a.reshape([rows, k]), &g.reshape([rows, m]))
                        } else {
                            linalg::bmm_tn(a, g)
                        };
                        vec![Some(ga), Some(gb)]
                    })
                })
            }),
        )
    }

    /// Applies a shared weight to the trailing feature axis:
    /// `x: [..., d] x w: [d, k] -> [..., k]` (flattens leading axes).
    pub fn linear(&self, w: &Tensor) -> Tensor {
        let dims = self.dims();
        let d = *dims.last().expect("linear needs rank >= 1");
        let rows = dims[..dims.len() - 1].iter().product::<usize>();
        let flat = self.reshape([rows, d]);
        let out = flat.matmul(w);
        let mut out_dims = dims[..dims.len() - 1].to_vec();
        out_dims.push(w.dims()[1]);
        out.reshape(out_dims)
    }

    // ------------------------------------------------------------------
    // Softmax / normalization / reductions
    // ------------------------------------------------------------------

    /// Softmax over the last axis.
    pub fn softmax_last(&self) -> Tensor {
        let value = self.with_value(linalg::softmax_last);
        let out = value.clone();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, _| vec![Some(linalg::softmax_backward_last(&out, g))]),
        )
    }

    /// Layer normalization over the last axis with learnable `gamma`/`beta`.
    ///
    /// Forward and backward both run through the shared
    /// [`linalg::layer_norm_forward_last`]/[`linalg::layer_norm_backward_last`]
    /// kernels (row-parallel, deterministic chunked `dgamma`/`dbeta`
    /// reduction).
    pub fn layer_norm_last(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        let (value, xhat, inv_std) = self.with_value(|x| {
            gamma.with_value(|gv| {
                beta.with_value(|bv| linalg::layer_norm_forward_last(x, gv, bv, eps))
            })
        });
        Tensor::from_op(
            value,
            vec![self.clone(), gamma.clone(), beta.clone()],
            Box::new(move |g, parents| {
                let (dx, dgamma, dbeta) = parents[1]
                    .with_value(|gv| linalg::layer_norm_backward_last(&xhat, &inv_std, gv, g));
                vec![Some(dx), Some(dgamma), Some(dbeta)]
            }),
        )
    }

    /// Sum of all elements (scalar output).
    pub fn sum(&self) -> Tensor {
        let value = NdArray::scalar(self.with_value(|a| a.sum_all()));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                let s = g.item();
                vec![Some(NdArray::full(parents[0].shape(), s))]
            }),
        )
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&self) -> Tensor {
        let n = self.with_value(|a| a.numel()).max(1);
        self.sum().mul_scalar(1.0 / n as f32)
    }

    /// Sum along the last axis.
    pub fn sum_last(&self) -> Tensor {
        let value = self.with_value(linalg::sum_last);
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                let p_shape = parents[0].shape();
                let w = *p_shape.dims().last().unwrap();
                let mut out = NdArray::zeros(p_shape.clone());
                let dst = out.as_mut_slice();
                let src = g.as_slice();
                for (r, &gv) in src.iter().enumerate() {
                    for d in dst[r * w..(r + 1) * w].iter_mut() {
                        *d = gv;
                    }
                }
                vec![Some(out)]
            }),
        )
    }

    /// Mean along the last axis.
    pub fn mean_last(&self) -> Tensor {
        let w = *self.dims().last().expect("mean_last needs rank >= 1") as f32;
        self.sum_last().mul_scalar(1.0 / w.max(1.0))
    }

    /// Embedding lookup: gathers rows of a `[vocab, f]` parameter table.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let idx = indices.to_vec();
        let value = self.with_value(|t| linalg::gather_rows(t, &idx));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let v = parents[0].shape().dims()[0];
                vec![Some(linalg::scatter_add_rows(g, &idx, v))]
            }),
        )
    }

    /// Multiplies by a fixed 0/1 (or arbitrary) mask, no grad through mask.
    pub fn mask(&self, mask: &NdArray) -> Tensor {
        self.mul(&Tensor::constant(mask.clone()))
    }

    /// Mean squared error against a constant target, restricted to positions
    /// where `mask` is 1: `Σ ((x − target)·mask)² / Σ mask`. `target` and
    /// `mask` are shaped like `self`, and `mask` must contain at least one
    /// 1.
    ///
    /// One node, the arithmetic of the chain `sub`, `mask`, `square`, `sum`,
    /// `mul_scalar` element for element — the sum of squares in `f64` in
    /// flat order, and each gradient element `(c·r + c·r)·mask` for `r` the
    /// masked residual and `c` the output gradient over `Σ mask`, as the
    /// square's two operands summed — so the loss and its gradient are that
    /// chain's bits. It keeps the masked residuals and the mask in reused
    /// memory.
    pub fn mse_masked(&self, target: &NdArray, mask: &NdArray) -> Tensor {
        let count = mask.sum_all();
        assert!(count > 0.0, "mse_masked needs a non-empty mask");
        let shape = self.shape();
        assert!(
            target.shape() == &shape && mask.shape() == &shape,
            "mse_masked target {} and mask {} must be shaped like the prediction, {shape}",
            target.shape(),
            mask.shape()
        );
        let (len, scale) = (mask.numel(), 1.0 / count);
        let mut kept = Scratch::take(2 * len);
        let (residuals, kept_mask) = kept.split_at_mut(len);
        self.with_value(|x| {
            let pairs = x.as_slice().iter().zip(target.as_slice());
            for ((r, (&x, &t)), &k) in residuals.iter_mut().zip(pairs).zip(mask.as_slice()) {
                *r = (x - t) * k;
            }
        });
        kept_mask.copy_from_slice(mask.as_slice());
        let sum = residuals.iter().map(|&r| (r * r) as f64).sum::<f64>() as f32;
        Tensor::from_op(
            NdArray::scalar(sum * scale),
            vec![self.clone()],
            Box::new(move |g, _| {
                let c = g.item() * scale;
                let (residuals, mask) = kept.split_at(len);
                let mut dx = NdArray::zeros(shape.clone());
                for ((d, &r), &k) in dx.as_mut_slice().iter_mut().zip(residuals).zip(mask) {
                    *d = (c * r + c * r) * k;
                }
                vec![Some(dx)]
            }),
        )
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tensor(id={}, shape={}, requires_grad={})",
            self.id(),
            self.shape(),
            self.requires_grad()
        )
    }
}
