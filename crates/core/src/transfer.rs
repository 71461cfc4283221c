//! Downstream-task transfer (paper §IV-B2): task heads over a distilled
//! backbone, fine-tuning, and evaluation.
//!
//! The paper fine-tunes DFKD-trained students on NYUv2 (segmentation +
//! depth + surface normals, multi-task), ADE-20K (segmentation) and
//! COCO-2017 (detection). Heads here are 1×1 convolutions over the
//! backbone's last spatial feature map, upsampled to input resolution —
//! deliberately small so measured differences come from the *backbone
//! representations*, which is exactly what the paper's transferability claim
//! is about.

use crate::metrics::depth::DepthErrors;
use crate::metrics::detection::{coco_map, mean_ap, Detection, SizeBucket};
use crate::metrics::normals::NormalErrors;
use crate::metrics::seg::SegConfusion;
use cae_data::dense::{BBox, DenseDataset};
use cae_nn::infer::FreezeOptions;
use cae_nn::layers::Conv2d;
use cae_nn::loss::cross_entropy;
use cae_nn::module::{Classifier, ForwardCtx, Module};
use cae_nn::optim::{CosineSchedule, Optimizer, Sgd};
use cae_tensor::rng::TensorRng;
use cae_tensor::{Tensor, Var};
use std::sync::Arc;

/// Which dense tasks a transfer run trains and evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSet {
    /// Semantic segmentation.
    pub seg: bool,
    /// Depth estimation.
    pub depth: bool,
    /// Surface-normal prediction.
    pub normals: bool,
    /// Object detection.
    pub detection: bool,
}

impl TaskSet {
    /// NYUv2: segmentation + depth + normals (multi-task).
    pub fn nyu() -> Self {
        TaskSet { seg: true, depth: true, normals: true, detection: false }
    }

    /// ADE-20K: segmentation only.
    pub fn seg_only() -> Self {
        TaskSet { seg: true, depth: false, normals: false, detection: false }
    }

    /// COCO-2017: detection only.
    pub fn detection_only() -> Self {
        TaskSet { seg: false, depth: false, normals: false, detection: true }
    }
}

/// All dense metrics produced by a transfer evaluation; unused fields stay
/// `None`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransferMetrics {
    /// Segmentation mean IoU.
    pub miou: Option<f32>,
    /// Segmentation pixel accuracy.
    pub pacc: Option<f32>,
    /// Depth absolute error.
    pub abs_err: Option<f32>,
    /// Depth relative error.
    pub rel_err: Option<f32>,
    /// Normal mean angular error (degrees).
    pub normal_mean: Option<f32>,
    /// Normal median angular error (degrees).
    pub normal_median: Option<f32>,
    /// Fraction of normals within 11.25°.
    pub within_11: Option<f32>,
    /// Fraction of normals within 22.5°.
    pub within_22: Option<f32>,
    /// Fraction of normals within 30°.
    pub within_30: Option<f32>,
    /// COCO-style mAP (IoU 0.5:0.95).
    pub map: Option<f32>,
    /// mAP at IoU 0.5.
    pub map50: Option<f32>,
    /// mAP at IoU 0.75.
    pub map75: Option<f32>,
    /// mAP over small objects.
    pub map_small: Option<f32>,
    /// mAP over medium objects.
    pub map_medium: Option<f32>,
    /// mAP over large objects.
    pub map_large: Option<f32>,
}

/// A backbone plus dense task heads, fine-tuned jointly.
///
/// The backbone is reference-counted (`Arc`, so `DenseModel` stays `Send`
/// and transfer cells can run on scheduler workers) so several
/// `DenseModel`s (e.g. the stages of a continual-transfer run) can share —
/// and jointly evolve — the same representation while keeping their own
/// heads.
pub struct DenseModel {
    backbone: Arc<dyn Classifier>,
    seg_head: Option<Conv2d>,
    depth_head: Option<Conv2d>,
    normal_head: Option<Conv2d>,
    det_obj: Option<Conv2d>,
    det_box: Option<Conv2d>,
    det_cls: Option<Conv2d>,
    num_seg_classes: usize,
    num_obj_classes: usize,
}

impl DenseModel {
    /// Attaches fresh heads to a (distilled or supervised) backbone.
    pub fn new(
        backbone: Arc<dyn Classifier>,
        tasks: TaskSet,
        num_seg_classes: usize,
        num_obj_classes: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let c = backbone.embed_dim();
        DenseModel {
            seg_head: tasks
                .seg
                .then(|| Conv2d::new(c, num_seg_classes, 1, 1, 0, true, rng)),
            depth_head: tasks.depth.then(|| Conv2d::new(c, 1, 1, 1, 0, true, rng)),
            normal_head: tasks.normals.then(|| Conv2d::new(c, 3, 1, 1, 0, true, rng)),
            det_obj: tasks.detection.then(|| Conv2d::new(c, 1, 1, 1, 0, true, rng)),
            det_box: tasks.detection.then(|| Conv2d::new(c, 4, 1, 1, 0, true, rng)),
            det_cls: tasks
                .detection
                .then(|| Conv2d::new(c, num_obj_classes, 1, 1, 0, true, rng)),
            backbone,
            num_seg_classes,
            num_obj_classes,
        }
    }

    fn all_params(&self) -> Vec<Var> {
        let mut p = self.backbone.parameters();
        for head in [
            &self.seg_head,
            &self.depth_head,
            &self.normal_head,
            &self.det_obj,
            &self.det_box,
            &self.det_cls,
        ]
        .into_iter()
        .flatten()
        {
            p.extend(head.parameters());
        }
        p
    }

    /// Backbone features upsampled to input resolution, plus the feature
    /// grid side (for detection decoding).
    fn features(&self, x: &Var, ctx: &mut ForwardCtx) -> (Var, usize) {
        let feat = self.backbone.forward_spatial(x, ctx);
        let fdim = feat.dims();
        (feat, fdim[2])
    }

    fn upsample_to(&self, v: &Var, res: usize) -> Var {
        let dims = v.dims();
        let factor = res / dims[2];
        if factor > 1 {
            v.upsample_nearest2d(factor)
        } else {
            v.clone()
        }
    }
}

/// Labels of one training batch, pre-flattened for the loss kernels.
struct BatchLabels {
    seg: Vec<usize>,
    depth: Tensor,
    normal_rows: Tensor,
    boxes: Vec<Vec<BBox>>,
}

fn collect_labels(dataset: &DenseDataset, indices: &[usize]) -> BatchLabels {
    let r = dataset.resolution();
    let mut seg = Vec::with_capacity(indices.len() * r * r);
    let mut depth = Vec::with_capacity(indices.len() * r * r);
    let mut normal_rows = Vec::with_capacity(indices.len() * r * r * 3);
    let mut boxes = Vec::with_capacity(indices.len());
    for &i in indices {
        let s = dataset.sample_at(i);
        seg.extend_from_slice(&s.seg);
        depth.extend_from_slice(s.depth.data());
        let nd = s.normals.data();
        let p = r * r;
        for px in 0..p {
            normal_rows.push(nd[px]);
            normal_rows.push(nd[p + px]);
            normal_rows.push(nd[2 * p + px]);
        }
        boxes.push(s.boxes.clone());
    }
    BatchLabels {
        seg,
        depth: Tensor::from_vec(depth, &[indices.len(), 1, r, r]).expect("shape consistent"),
        normal_rows: Tensor::from_vec(normal_rows, &[indices.len() * r * r, 3])
            .expect("shape consistent"),
        boxes,
    }
}

/// Detection targets on the feature grid.
struct DetTargets {
    obj: Tensor,     // [N*g*g, 1]
    boxes: Tensor,   // [N*g*g, 4]
    pos_mask: Tensor, // [N*g*g, 1]
    cls_rows: Vec<usize>,
    cls_targets: Vec<usize>,
}

fn det_targets(boxes: &[Vec<BBox>], grid: usize, res: usize) -> DetTargets {
    let n = boxes.len();
    let stride = res as f32 / grid as f32;
    let mut obj = Tensor::zeros(&[n * grid * grid, 1]);
    let mut tgt = Tensor::zeros(&[n * grid * grid, 4]);
    let mut mask = Tensor::zeros(&[n * grid * grid, 1]);
    let mut cls_rows = Vec::new();
    let mut cls_targets = Vec::new();
    for (img, bs) in boxes.iter().enumerate() {
        for b in bs {
            let cx = (b.x0 + b.x1) as f32 / 2.0;
            let cy = (b.y0 + b.y1) as f32 / 2.0;
            let gi = ((cy / stride) as usize).min(grid - 1);
            let gj = ((cx / stride) as usize).min(grid - 1);
            let row = img * grid * grid + gi * grid + gj;
            obj.data_mut()[row] = 1.0;
            mask.data_mut()[row] = 1.0;
            // Targets: center offsets within the cell and sizes relative to
            // the image.
            tgt.data_mut()[row * 4] = cx / stride - gj as f32;
            tgt.data_mut()[row * 4 + 1] = cy / stride - gi as f32;
            tgt.data_mut()[row * 4 + 2] = (b.x1 - b.x0) as f32 / res as f32;
            tgt.data_mut()[row * 4 + 3] = (b.y1 - b.y0) as f32 / res as f32;
            cls_rows.push(row);
            cls_targets.push(b.class);
        }
    }
    DetTargets {
        obj,
        boxes: tgt,
        pos_mask: mask,
        cls_rows,
        cls_targets,
    }
}

/// Fine-tunes `model` on `train` for `steps` and returns the final loss.
pub fn finetune(
    model: &DenseModel,
    train: &DenseDataset,
    steps: usize,
    batch_size: usize,
    rng: &mut TensorRng,
) -> f32 {
    let params = model.all_params();
    let base_lr = 0.02;
    let mut opt = Sgd::new(params, base_lr, 0.9, 1e-4);
    let schedule = CosineSchedule::new(base_lr, steps);
    let res = train.resolution();
    let mut last = f32::NAN;
    for step in 0..steps {
        opt.set_lr(schedule.lr_at(step));
        let indices: Vec<usize> = (0..batch_size).map(|_| rng.index(train.len())).collect();
        let x = Var::constant(train.image_batch(&indices));
        let labels = collect_labels(train, &indices);
        let mut ctx = ForwardCtx::train();
        let (feat, grid) = model.features(&x, &mut ctx);

        let mut loss: Option<Var> = None;
        let mut add = |term: Var| {
            loss = Some(match loss.take() {
                Some(l) => l.add(&term),
                None => term,
            });
        };

        if let Some(head) = &model.seg_head {
            let logits = model.upsample_to(&head.forward(&feat, &mut ctx), res);
            add(cross_entropy(&logits.nchw_to_rows(), &labels.seg));
        }
        if let Some(head) = &model.depth_head {
            let pred = model
                .upsample_to(&head.forward(&feat, &mut ctx), res)
                .sigmoid()
                .scale(2.0);
            add(pred.sub(&Var::constant(labels.depth.clone())).abs().mean_all());
        }
        if let Some(head) = &model.normal_head {
            let pred = model
                .upsample_to(&head.forward(&feat, &mut ctx), res)
                .nchw_to_rows()
                .l2_normalize_rows();
            add(pred
                .sub(&Var::constant(labels.normal_rows.clone()))
                .square()
                .mean_all()
                .scale(2.0));
        }
        if let (Some(obj_h), Some(box_h), Some(cls_h)) =
            (&model.det_obj, &model.det_box, &model.det_cls)
        {
            let t = det_targets(&labels.boxes, grid, res);
            let obj = obj_h.forward(&feat, &mut ctx).nchw_to_rows().sigmoid();
            add(obj.sub(&Var::constant(t.obj.clone())).square().mean_all().scale(4.0));
            let boxes = box_h.forward(&feat, &mut ctx).nchw_to_rows().sigmoid().scale(1.5);
            let npos = t.cls_rows.len().max(1) as f32;
            let mask4 = {
                let mut m = Tensor::zeros(&boxes.dims());
                for (row, v) in m.data_mut().chunks_mut(4).enumerate() {
                    if t.pos_mask.data()[row] > 0.0 {
                        v.fill(1.0);
                    }
                }
                m
            };
            add(boxes
                .sub(&Var::constant(t.boxes.clone()))
                .abs()
                .mul_const(&mask4)
                .sum_all()
                .scale(1.0 / (4.0 * npos)));
            if !t.cls_rows.is_empty() {
                let cls = cls_h.forward(&feat, &mut ctx).nchw_to_rows();
                let picked = Var::concat0(
                    &t.cls_rows
                        .iter()
                        .map(|&r| cls.slice0(r, 1))
                        .collect::<Vec<_>>(),
                );
                add(cross_entropy(&picked, &t.cls_targets));
            }
        }

        let loss = loss.expect("at least one task enabled");
        opt.zero_grad();
        loss.backward();
        opt.step();
        last = loss.item();
    }
    last
}

/// Evaluates `model` on `test`, producing all enabled metrics.
///
/// The backbone — the expensive part of each batch — is compiled into a
/// graph-free frozen forward once per call (weights do not change during
/// evaluation); the small task heads stay on the autograd path over the
/// frozen features.
pub fn evaluate(model: &DenseModel, test: &DenseDataset, batch_size: usize) -> TransferMetrics {
    let frozen_backbone = model.backbone.freeze_with(&FreezeOptions::fused());
    let res = test.resolution();
    let mut seg_conf = SegConfusion::new(model.num_seg_classes.max(1));
    let mut depth_err = DepthErrors::new();
    let mut normal_err = NormalErrors::new();
    let mut det_data: Vec<(Vec<Detection>, Vec<BBox>)> = Vec::new();

    let mut start = 0usize;
    while start < test.len() {
        let len = batch_size.min(test.len() - start);
        let indices: Vec<usize> = (start..start + len).collect();
        let xt = test.image_batch(&indices);
        let mut ctx = ForwardCtx::eval();
        let spatial = frozen_backbone.forward_spatial(&xt);
        let grid = spatial.shape().dim(2);
        let feat = Var::constant(spatial);

        if let Some(head) = &model.seg_head {
            let logits = model.upsample_to(&head.forward(&feat, &mut ctx), res);
            let rows = logits.nchw_to_rows();
            let pred = rows.value().argmax_rows();
            for (bi, &i) in indices.iter().enumerate() {
                let gt = &test.sample_at(i).seg;
                seg_conf.add(&pred[bi * res * res..(bi + 1) * res * res], gt);
            }
        }
        if let Some(head) = &model.depth_head {
            let pred = model
                .upsample_to(&head.forward(&feat, &mut ctx), res)
                .sigmoid()
                .scale(2.0);
            let pv = pred.to_tensor();
            for (bi, &i) in indices.iter().enumerate() {
                let gt = test.sample_at(i).depth.data();
                depth_err.add(&pv.data()[bi * res * res..(bi + 1) * res * res], gt);
            }
        }
        if let Some(head) = &model.normal_head {
            let pred = model.upsample_to(&head.forward(&feat, &mut ctx), res);
            let pv = pred.to_tensor();
            for (bi, &i) in indices.iter().enumerate() {
                let gt = test.sample_at(i).normals.data();
                let stride = 3 * res * res;
                normal_err.add_planar(&pv.data()[bi * stride..(bi + 1) * stride], gt);
            }
        }
        if let (Some(obj_h), Some(box_h), Some(cls_h)) =
            (&model.det_obj, &model.det_box, &model.det_cls)
        {
            let obj = obj_h.forward(&feat, &mut ctx).sigmoid();
            let boxes = box_h.forward(&feat, &mut ctx).sigmoid().scale(1.5);
            let cls = cls_h.forward(&feat, &mut ctx);
            let stride_px = res as f32 / grid as f32;
            let gg = grid * grid;
            let k = model.num_obj_classes;
            for (bi, &i) in indices.iter().enumerate() {
                let mut dets = Vec::new();
                for gi in 0..grid {
                    for gj in 0..grid {
                        let cell = gi * grid + gj;
                        let score = obj.value().data()[bi * gg + cell];
                        if score < 0.3 {
                            continue;
                        }
                        let bd = boxes.value();
                        let at = |ch: usize| bd.data()[(bi * 4 + ch) * gg + cell];
                        let cx = (gj as f32 + at(0)) * stride_px;
                        let cy = (gi as f32 + at(1)) * stride_px;
                        let w = at(2) * res as f32;
                        let h = at(3) * res as f32;
                        let x0 = (cx - w / 2.0).max(0.0) as usize;
                        let y0 = (cy - h / 2.0).max(0.0) as usize;
                        let x1 = ((cx + w / 2.0) as usize).min(res).max(x0 + 1);
                        let y1 = ((cy + h / 2.0) as usize).min(res).max(y0 + 1);
                        let cd = cls.value();
                        let mut best_c = 0usize;
                        let mut best_v = f32::NEG_INFINITY;
                        for c in 0..k {
                            let v = cd.data()[(bi * k + c) * gg + cell];
                            if v > best_v {
                                best_v = v;
                                best_c = c;
                            }
                        }
                        dets.push(Detection {
                            bbox: BBox { x0, y0, x1, y1, class: best_c },
                            score,
                        });
                    }
                }
                det_data.push((dets, test.sample_at(i).boxes.clone()));
            }
        }
        start += len;
    }

    let mut m = TransferMetrics::default();
    if model.seg_head.is_some() {
        m.miou = Some(seg_conf.mean_iou());
        m.pacc = Some(seg_conf.pixel_accuracy());
    }
    if model.depth_head.is_some() {
        m.abs_err = Some(depth_err.abs_error());
        m.rel_err = Some(depth_err.rel_error());
    }
    if model.normal_head.is_some() {
        m.normal_mean = Some(normal_err.mean());
        m.normal_median = Some(normal_err.median());
        m.within_11 = Some(normal_err.within_degrees(11.25));
        m.within_22 = Some(normal_err.within_degrees(22.5));
        m.within_30 = Some(normal_err.within_degrees(30.0));
    }
    if model.det_obj.is_some() {
        let k = model.num_obj_classes;
        let area = res * res;
        m.map = Some(coco_map(&det_data, k));
        m.map50 = Some(mean_ap(&det_data, k, 0.5, None));
        m.map75 = Some(mean_ap(&det_data, k, 0.75, None));
        m.map_small = Some(mean_ap(&det_data, k, 0.5, Some((SizeBucket::Small, area))));
        m.map_medium = Some(mean_ap(&det_data, k, 0.5, Some((SizeBucket::Medium, area))));
        m.map_large = Some(mean_ap(&det_data, k, 0.5, Some((SizeBucket::Large, area))));
    }
    m
}

/// Convenience wrapper: attach heads to `backbone`, fine-tune on `train`,
/// evaluate on `test`.
pub fn transfer_evaluate(
    backbone: Box<dyn Classifier>,
    tasks: TaskSet,
    train: &DenseDataset,
    test: &DenseDataset,
    steps: usize,
    seed: u64,
) -> TransferMetrics {
    let mut rng = TensorRng::seed_from(seed);
    let num_obj = test.num_seg_classes() - 1;
    let model = DenseModel::new(Arc::from(backbone), tasks, test.num_seg_classes(), num_obj, &mut rng);
    finetune(&model, train, steps, 8, &mut rng);
    evaluate(&model, test, 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cae_data::dense::DensePreset;
    use cae_nn::models::Arch;

    fn backbone() -> Box<dyn Classifier> {
        let mut rng = TensorRng::seed_from(0);
        Arch::ResNet18.build(4, 4, &mut rng)
    }

    #[test]
    fn nyu_transfer_produces_all_metrics() {
        let (train, test) = DensePreset::NyuSim.generate(12, 4, 3);
        let m = transfer_evaluate(backbone(), TaskSet::nyu(), &train, &test, 8, 1);
        assert!(m.miou.is_some() && m.pacc.is_some());
        assert!(m.abs_err.is_some() && m.rel_err.is_some());
        assert!(m.normal_mean.is_some() && m.within_30.is_some());
        assert!(m.map.is_none());
        assert!((0.0..=1.0).contains(&m.pacc.expect("pAcc set")));
    }

    #[test]
    fn detection_transfer_produces_map_family() {
        let (train, test) = DensePreset::CocoSim.generate(12, 4, 5);
        let m = transfer_evaluate(backbone(), TaskSet::detection_only(), &train, &test, 8, 2);
        assert!(m.map.is_some() && m.map50.is_some() && m.map75.is_some());
        assert!(m.map_small.is_some() && m.map_medium.is_some() && m.map_large.is_some());
        assert!(m.miou.is_none());
    }

    #[test]
    fn finetuning_improves_segmentation() {
        let (train, test) = DensePreset::AdeSim.generate(24, 8, 7);
        let mut rng = TensorRng::seed_from(3);
        let model = DenseModel::new(
            Arc::from(backbone()),
            TaskSet::seg_only(),
            test.num_seg_classes(),
            test.num_seg_classes() - 1,
            &mut rng,
        );
        let before = evaluate(&model, &test, 8);
        finetune(&model, &train, 40, 8, &mut rng);
        let after = evaluate(&model, &test, 8);
        assert!(
            after.pacc.expect("pAcc") > before.pacc.expect("pAcc"),
            "fine-tuning should improve pAcc: {:?} -> {:?}",
            before.pacc,
            after.pacc
        );
    }
}
