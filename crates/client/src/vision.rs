//! The CNN object-recognition model (the MobileNets stand-in, §3.1).
//!
//! Frames are divided into 8×6-pixel cells on a 12×9 grid. A small
//! convolutional network classifies each cell as background or one of the
//! app's object classes; adjacent same-class cells are merged into object
//! detections with a centroid. Training data comes from recorded sessions
//! with the ground-truth object lists serving as the paper's "manually
//! labeled" frames.
//!
//! A cheap two-stage trick keeps inference fast: cells whose pixel variance
//! is below a threshold learned at training time are classified as
//! background without running the network (real detectors do the same with
//! region proposals). This does not change what the network learns; it only
//! skips provably boring cells.

use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::Rng;

use pictor_apps::world::DetectedObject;
use pictor_apps::App;
use pictor_gfx::frame::{SIM_HEIGHT, SIM_WIDTH};
use pictor_gfx::Frame;
use pictor_ml::dense::Activation;
use pictor_ml::{
    softmax_cross_entropy, softmax_probs, Adam, Conv2d, Dense, MaxPool2, Scratch, Tensor4,
};

use crate::recorder::RecordedSession;

/// Cell width in pixels.
pub const CELL_W: usize = 8;
/// Cell height in pixels.
pub const CELL_H: usize = 6;
/// Cells per row.
pub const GRID_W: usize = SIM_WIDTH / CELL_W; // 12
/// Cells per column.
pub const GRID_H: usize = SIM_HEIGHT / CELL_H; // 9

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisionConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Cap on training cells (balanced between classes).
    pub max_samples: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Mini-batch size.
    pub batch: usize,
}

impl Default for VisionConfig {
    fn default() -> Self {
        VisionConfig {
            epochs: 10,
            max_samples: 3000,
            lr: 0.01,
            batch: 32,
        }
    }
}

/// A trained per-application vision model.
#[derive(Debug, Clone)]
pub struct VisionModel {
    app: App,
    classes: Vec<u8>,
    conv: Conv2d,
    pool: MaxPool2,
    head: Dense,
    /// Cells with pixel std below this are background without inference.
    variance_gate: f64,
    train_accuracy: f64,
}

/// Bytes per raster row.
const ROW_BYTES: usize = SIM_WIDTH * 3;
/// Values per cell tensor (3 channels × `CELL_H` × `CELL_W`).
const CELL_LEN: usize = 3 * CELL_H * CELL_W;

/// The `CELL_H` raster rows of cell `(cx, cy)`, `3 · CELL_W` bytes each.
fn cell_rows(frame: &Frame, cx: usize, cy: usize) -> impl Iterator<Item = &[u8]> {
    frame
        .bytes()
        .chunks_exact(ROW_BYTES)
        .skip(cy * CELL_H)
        .take(CELL_H)
        .map(move |row| &row[cx * CELL_W * 3..(cx + 1) * CELL_W * 3])
}

/// `f64::from(v) / 255.0 - 0.5` for every byte value.
fn normalized_bytes() -> &'static [f64; 256] {
    static TABLE: OnceLock<[f64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|v| f64::from(v as u8) / 255.0 - 0.5))
}

/// Writes one cell's normalized pixels into `out` (`CELL_LEN` values in
/// channel, row, column order — a `[3, CELL_H, CELL_W]` tensor slice).
fn write_cell(frame: &Frame, cx: usize, cy: usize, out: &mut [f64]) {
    let norm = normalized_bytes();
    let (r, rest) = out.split_at_mut(CELL_H * CELL_W);
    let (g, b) = rest.split_at_mut(CELL_H * CELL_W);
    let planes = r
        .chunks_exact_mut(CELL_W)
        .zip(g.chunks_exact_mut(CELL_W))
        .zip(b.chunks_exact_mut(CELL_W));
    for (((r, g), b), row) in planes.zip(cell_rows(frame, cx, cy)) {
        for (x, px) in row.chunks_exact(3).enumerate() {
            r[x] = norm[usize::from(px[0])];
            g[x] = norm[usize::from(px[1])];
            b[x] = norm[usize::from(px[2])];
        }
    }
}

/// Builds the normalized 3-channel tensor for one cell, backed by scratch
/// storage (return it to the pool with `ws.put(t.into_vec())`).
fn cell_tensor(frame: &Frame, cx: usize, cy: usize, ws: &mut Scratch) -> Tensor4 {
    let mut t = Tensor4::from_vec(1, 3, CELL_H, CELL_W, ws.take_uninit(CELL_LEN));
    write_cell(frame, cx, cy, t.data_mut());
    t
}

/// Standard deviation of cell `(cx, cy)`'s channel bytes — the variance
/// gate's statistic.
///
/// Sums bytes and squared bytes in `u32` (at most `144 · 255² < 2^24`).
/// Every partial sum of the reference's `f64` accumulation is an integer
/// below `2^53`, hence exact, so both sums — and the result — are
/// bit-identical to [`cell_std_reference`]'s.
pub fn cell_std(frame: &Frame, cx: usize, cy: usize) -> f64 {
    let (mut sum, mut sum2) = (0u32, 0u32);
    for row in cell_rows(frame, cx, cy) {
        for &c in row {
            let v = u32::from(c);
            sum += v;
            sum2 += v * v;
        }
    }
    std_of(f64::from(sum), f64::from(sum2))
}

/// The seed implementation of [`cell_std`] (per-pixel [`Frame::pixel`]
/// reads into `f64` sums), kept as the bit-exactness reference for tests
/// and benchmarks.
pub fn cell_std_reference(frame: &Frame, cx: usize, cy: usize) -> f64 {
    let mut sum = 0.0;
    let mut sum2 = 0.0;
    for y in 0..CELL_H {
        for x in 0..CELL_W {
            let px = frame.pixel(cx * CELL_W + x, cy * CELL_H + y);
            for &c in &px {
                let v = f64::from(c);
                sum += v;
                sum2 += v * v;
            }
        }
    }
    std_of(sum, sum2)
}

/// Standard deviation from a cell's sum and sum of squares.
fn std_of(sum: f64, sum2: f64) -> f64 {
    let n = CELL_LEN as f64;
    let mean = sum / n;
    ((sum2 / n - mean * mean).max(0.0)).sqrt()
}

impl VisionModel {
    /// Trains a vision model for the session's app.
    ///
    /// # Panics
    ///
    /// Panics if the session is empty.
    pub fn train(session: &RecordedSession, config: VisionConfig, rng: &mut SmallRng) -> Self {
        assert!(!session.is_empty(), "cannot train on an empty session");
        let classes = session.app.world.classes.clone();
        let n_out = classes.len() + 1; // + background

        // Label each cell of each frame: cells whose center falls inside an
        // object's silhouette get that object's class (the rasterizer draws
        // an ellipse with half-height `size/2` normalized and equal
        // half-width in *pixels*).
        let mut by_label: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); n_out];
        for (fi, truth) in session.truths.iter().enumerate() {
            let mut labeled = [[0usize; GRID_W]; GRID_H]; // 0 = background
            for obj in truth {
                let Some(ci) = classes.iter().position(|&c| c == obj.class) else {
                    continue;
                };
                let ry = (obj.size / 2.0).max(0.02);
                let rx = ry * SIM_HEIGHT as f64 / SIM_WIDTH as f64;
                for (cy, row) in labeled.iter_mut().enumerate() {
                    for (cx, cell) in row.iter_mut().enumerate() {
                        let ccx = (cx as f64 + 0.5) * CELL_W as f64 / SIM_WIDTH as f64;
                        let ccy = (cy as f64 + 0.5) * CELL_H as f64 / SIM_HEIGHT as f64;
                        let dx = (ccx - obj.x) / rx;
                        let dy = (ccy - obj.y) / ry;
                        if dx * dx + dy * dy <= 1.0 {
                            *cell = ci + 1;
                        }
                    }
                }
            }
            for cy in 0..GRID_H {
                for cx in 0..GRID_W {
                    by_label[labeled[cy][cx]].push((fi, cx, cy));
                }
            }
        }
        // Balance: cap background at the total object-cell count.
        let object_cells: usize = by_label[1..].iter().map(Vec::len).sum();
        let per_class_cap = (config.max_samples / n_out).max(8);
        let mut samples: Vec<(usize, usize, usize, usize)> = Vec::new();
        for (label, cells) in by_label.iter().enumerate() {
            let cap = if label == 0 {
                per_class_cap.min(object_cells.max(8))
            } else {
                per_class_cap
            };
            let mut cells = cells.clone();
            // Deterministic shuffle.
            for i in (1..cells.len()).rev() {
                let j = rng.gen_range(0..=i);
                cells.swap(i, j);
            }
            for &(fi, cx, cy) in cells.iter().take(cap) {
                samples.push((fi, cx, cy, label));
            }
        }
        // Variance gate: midpoint between mean background std and mean
        // object-cell std (fallback: gate disabled at 0).
        let stds = |label_filter: Box<dyn Fn(usize) -> bool>| -> Vec<f64> {
            samples
                .iter()
                .filter(|&&(_, _, _, l)| label_filter(l))
                .map(|&(fi, cx, cy, _)| cell_std(&session.frames[fi], cx, cy))
                .collect()
        };
        let bg_stds = stds(Box::new(|l| l == 0));
        let obj_stds = stds(Box::new(|l| l != 0));
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let variance_gate = if !bg_stds.is_empty() && !obj_stds.is_empty() {
            let (bg, ob) = (mean(&bg_stds), mean(&obj_stds));
            if ob > bg {
                bg + (ob - bg) * 0.3
            } else {
                0.0
            }
        } else {
            0.0
        };

        let mut conv = Conv2d::new(3, 6, 3, rng);
        let mut pool = MaxPool2::new();
        let (ph, pw) = MaxPool2::out_size(CELL_H, CELL_W);
        let mut head = Dense::new(6 * ph * pw, n_out, Activation::Identity, rng);
        let mut adam = Adam::new(config.lr);
        let mut ws = Scratch::new();
        for _ in 0..config.epochs {
            for i in (1..samples.len()).rev() {
                let j = rng.gen_range(0..=i);
                samples.swap(i, j);
            }
            for chunk in samples.chunks(config.batch) {
                // Assemble the mini-batch.
                let mut batch_in = Tensor4::zeros(chunk.len(), 3, CELL_H, CELL_W);
                let mut targets = Vec::with_capacity(chunk.len());
                let cells = batch_in.data_mut().chunks_exact_mut(CELL_LEN);
                for (out, &(fi, cx, cy, label)) in cells.zip(chunk) {
                    write_cell(&session.frames[fi], cx, cy, out);
                    targets.push(label);
                }
                let conv_out = conv.forward(&batch_in, &mut ws);
                let pooled = pool.forward(&conv_out);
                ws.put(conv_out.into_vec());
                let flat = pooled.flatten();
                let logits = head.forward(&flat);
                let (_, d_logits) = softmax_cross_entropy(&logits, &targets);
                let d_flat = head.backward(&d_logits, &mut ws);
                let d_pool = Tensor4::from_vec(
                    pooled.n,
                    pooled.c,
                    pooled.h,
                    pooled.w,
                    d_flat.data().to_vec(),
                );
                let d_conv = pool.backward(&d_pool);
                let dx = conv.backward(&d_conv, &mut ws);
                ws.put(dx.into_vec());
                let mut params = conv.params_and_grads();
                params.extend(head.params_and_grads());
                adam.step_slices(&mut params);
            }
        }
        // Training accuracy.
        let mut correct = 0usize;
        for &(fi, cx, cy, label) in &samples {
            let pred =
                Self::classify_cell_raw(&conv, &pool, &head, &session.frames[fi], cx, cy, &mut ws);
            if pred == label {
                correct += 1;
            }
        }
        let train_accuracy = correct as f64 / samples.len().max(1) as f64;
        VisionModel {
            app: session.app.clone(),
            classes,
            conv,
            pool,
            head,
            variance_gate,
            train_accuracy,
        }
    }

    fn classify_cell_raw(
        conv: &Conv2d,
        pool: &MaxPool2,
        head: &Dense,
        frame: &Frame,
        cx: usize,
        cy: usize,
        ws: &mut Scratch,
    ) -> usize {
        let cell = cell_tensor(frame, cx, cy, ws);
        let conv_out = conv.infer(&cell, ws);
        ws.put(cell.into_vec());
        let out = pool.infer(&conv_out);
        ws.put(conv_out.into_vec());
        let logits = head.infer(&out.flatten());
        let probs = softmax_probs(&logits);
        let mut best = 0;
        for c in 1..probs.cols() {
            if probs.get(0, c) > probs.get(0, best) {
                best = c;
            }
        }
        best
    }

    /// The benchmark this model was trained for.
    pub fn app(&self) -> &App {
        &self.app
    }

    /// Accuracy on the (balanced) training set.
    pub fn train_accuracy(&self) -> f64 {
        self.train_accuracy
    }

    /// Classifies one cell (0 = background, else `classes[label-1]`).
    /// Scratch buffers for the conv pipeline come from `ws`.
    pub fn classify_cell(&self, frame: &Frame, cx: usize, cy: usize, ws: &mut Scratch) -> usize {
        if self.variance_gate > 0.0 && cell_std(frame, cx, cy) < self.variance_gate {
            return 0;
        }
        Self::classify_cell_raw(&self.conv, &self.pool, &self.head, frame, cx, cy, ws)
    }

    /// Detects objects in a frame: classifies every cell, then merges
    /// 4-connected same-class cells into centroid detections.
    pub fn detect(&self, frame: &Frame, ws: &mut Scratch) -> Vec<DetectedObject> {
        let mut labels = [[0usize; GRID_W]; GRID_H];
        for (cy, row) in labels.iter_mut().enumerate() {
            for (cx, cell) in row.iter_mut().enumerate() {
                *cell = self.classify_cell(frame, cx, cy, ws);
            }
        }
        // BFS clustering.
        let mut seen = [[false; GRID_W]; GRID_H];
        let mut detections = Vec::new();
        for cy in 0..GRID_H {
            for cx in 0..GRID_W {
                if labels[cy][cx] == 0 || seen[cy][cx] {
                    continue;
                }
                let label = labels[cy][cx];
                let mut queue = vec![(cx, cy)];
                seen[cy][cx] = true;
                let mut cells = Vec::new();
                while let Some((x, y)) = queue.pop() {
                    cells.push((x, y));
                    let neighbors = [
                        (x.wrapping_sub(1), y),
                        (x + 1, y),
                        (x, y.wrapping_sub(1)),
                        (x, y + 1),
                    ];
                    for (nx, ny) in neighbors {
                        if nx < GRID_W && ny < GRID_H && !seen[ny][nx] && labels[ny][nx] == label {
                            seen[ny][nx] = true;
                            queue.push((nx, ny));
                        }
                    }
                }
                let n = cells.len() as f64;
                let mx = cells.iter().map(|&(x, _)| x as f64 + 0.5).sum::<f64>() / n;
                let my = cells.iter().map(|&(_, y)| y as f64 + 0.5).sum::<f64>() / n;
                detections.push(DetectedObject {
                    class: self.classes[label - 1],
                    x: mx * CELL_W as f64 / SIM_WIDTH as f64,
                    y: my * CELL_H as f64 / SIM_HEIGHT as f64,
                    size: (n * (CELL_W * CELL_H) as f64 / (SIM_WIDTH * SIM_HEIGHT) as f64).sqrt(),
                });
            }
        }
        detections
    }

    /// Multiply-accumulate count for classifying one cell (FLOP-cost model).
    pub fn macs_per_cell(&self) -> u64 {
        let conv_macs = self.conv.macs(CELL_H, CELL_W);
        let head_macs = (self.head.input_dim() * self.head.output_dim()) as u64;
        conv_macs + head_macs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record_session;
    use pictor_apps::AppId;
    use pictor_sim::SeedTree;
    use rand::SeedableRng;

    /// Which cell does a normalized coordinate land in? (test helper)
    fn cell_of(x: f64, y: f64) -> (usize, usize) {
        let cx = ((x * SIM_WIDTH as f64) as usize / CELL_W).min(GRID_W - 1);
        let cy = ((y * SIM_HEIGHT as f64) as usize / CELL_H).min(GRID_H - 1);
        (cx, cy)
    }

    fn trained(app: AppId, seed: u64) -> (VisionModel, RecordedSession) {
        let seeds = SeedTree::new(seed);
        let session = record_session(app, &seeds, 240, 13.3);
        let mut rng = SmallRng::seed_from_u64(seed);
        let config = VisionConfig {
            epochs: 8,
            max_samples: 2000,
            ..VisionConfig::default()
        };
        let model = VisionModel::train(&session, config, &mut rng);
        (model, session)
    }

    #[test]
    fn trains_to_usable_accuracy() {
        let (model, _) = trained(AppId::RedEclipse, 11);
        assert!(
            model.train_accuracy() > 0.8,
            "accuracy {}",
            model.train_accuracy()
        );
    }

    #[test]
    fn detects_objects_near_ground_truth() {
        let (model, session) = trained(AppId::RedEclipse, 12);
        // Evaluate on later frames of the session (held-in scene, the paper
        // trains and runs on the same scene).
        let mut ws = Scratch::new();
        let mut matched = 0usize;
        let mut total = 0usize;
        for fi in (session.len() - 40)..session.len() {
            let dets = model.detect(&session.frames[fi], &mut ws);
            for truth in &session.truths[fi] {
                total += 1;
                let hit = dets.iter().any(|d| {
                    d.class == truth.class
                        && ((d.x - truth.x).powi(2) + (d.y - truth.y).powi(2)).sqrt() < 0.15
                });
                if hit {
                    matched += 1;
                }
            }
        }
        let recall = matched as f64 / total.max(1) as f64;
        assert!(recall > 0.6, "recall {recall} ({matched}/{total})");
    }

    #[test]
    fn empty_scene_produces_few_detections() {
        let (model, _) = trained(AppId::RedEclipse, 13);
        let empty = pictor_gfx::draw_scene(0, &[], 0.3, 0.6);
        let dets = model.detect(&empty, &mut Scratch::new());
        assert!(dets.len() <= 2, "false positives: {dets:?}");
    }

    #[test]
    fn cell_tensor_matches_per_pixel_normalization() {
        let objs = [pictor_gfx::SceneObject::new(4, 0.4, 0.6, 0.3, 0.2)];
        let frame = pictor_gfx::draw_scene(0, &objs, 0.3, 0.6);
        let mut ws = Scratch::new();
        for cy in 0..GRID_H {
            for cx in 0..GRID_W {
                let t = cell_tensor(&frame, cx, cy, &mut ws);
                for y in 0..CELL_H {
                    for x in 0..CELL_W {
                        let px = frame.pixel(cx * CELL_W + x, cy * CELL_H + y);
                        for (ch, &v) in px.iter().enumerate() {
                            let want = f64::from(v) / 255.0 - 0.5;
                            assert_eq!(t.get(0, ch, y, x).to_bits(), want.to_bits());
                        }
                    }
                }
                ws.put(t.into_vec());
            }
        }
    }

    #[test]
    fn cell_of_maps_bounds() {
        assert_eq!(cell_of(0.0, 0.0), (0, 0));
        assert_eq!(cell_of(1.0, 1.0), (GRID_W - 1, GRID_H - 1));
        let (cx, cy) = cell_of(0.5, 0.5);
        assert!(cx == GRID_W / 2 && cy == GRID_H / 2);
    }

    #[test]
    fn macs_per_cell_is_plausible() {
        let (model, _) = trained(AppId::RedEclipse, 14);
        let macs = model.macs_per_cell();
        // conv: 6*3*9*48 = 7776, head: 72*3ish — thousands, not millions.
        assert!(macs > 1_000 && macs < 100_000, "macs={macs}");
    }

    #[test]
    #[should_panic(expected = "empty session")]
    fn empty_session_panics() {
        let session = RecordedSession {
            app: AppId::RedEclipse.into(),
            frames: vec![],
            truths: vec![],
            actions: vec![],
            fps: 30.0,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = VisionModel::train(&session, VisionConfig::default(), &mut rng);
    }
}
