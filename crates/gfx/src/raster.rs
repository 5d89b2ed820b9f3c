//! Deterministic rasterization of scene objects.
//!
//! Benchmark applications describe their world as a camera-relative list of
//! [`SceneObject`]s; this module draws them into a [`Frame`] raster. The same
//! object class renders with *different pixels at different positions,
//! distances and animation phases* — the property that defeats DeskBench's
//! pixel-matching on 3D content (paper §4) while remaining learnable for a
//! CNN.

use crate::frame::{Frame, SIM_HEIGHT, SIM_WIDTH};

/// An object instance visible in a frame, in normalized screen coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneObject {
    /// Object class (application-defined; 0–15 supported by the palette).
    pub class: u8,
    /// Horizontal center in `[0, 1]`.
    pub x: f64,
    /// Vertical center in `[0, 1]`.
    pub y: f64,
    /// Apparent size in `[0, 1]` (fraction of frame height).
    pub size: f64,
    /// Animation/viewing-angle phase in `[0, 1]`; shifts the object's shading
    /// so the same object never repeats pixel-exactly.
    pub phase: f64,
}

impl SceneObject {
    /// Creates an object, clamping fields into their documented ranges.
    pub fn new(class: u8, x: f64, y: f64, size: f64, phase: f64) -> Self {
        SceneObject {
            class,
            x: x.clamp(0.0, 1.0),
            y: y.clamp(0.0, 1.0),
            size: size.clamp(0.01, 1.0),
            phase: phase.rem_euclid(1.0),
        }
    }
}

/// Base colors per object class: distinct hues a per-cell classifier can
/// separate even with shading variation.
const PALETTE: [[u8; 3]; 16] = [
    [200, 40, 40],   // 0: red
    [40, 200, 40],   // 1: green
    [40, 40, 200],   // 2: blue
    [200, 200, 40],  // 3: yellow
    [200, 40, 200],  // 4: magenta
    [40, 200, 200],  // 5: cyan
    [220, 120, 40],  // 6: orange
    [120, 220, 40],  // 7: lime
    [40, 120, 220],  // 8: azure
    [220, 40, 120],  // 9: pink
    [120, 40, 220],  // 10: violet
    [40, 220, 120],  // 11: spring
    [160, 160, 160], // 12: grey
    [220, 220, 220], // 13: white-ish
    [100, 60, 20],   // 14: brown
    [60, 100, 20],   // 15: olive
];

/// Draws a background gradient plus every object into a fresh frame.
///
/// `camera` pans the background horizontally (normalized units), and
/// `ambient` in `[0, 1]` scales the background brightness — both vary per
/// app and per frame so consecutive frames always differ.
///
/// # Example
///
/// ```
/// use pictor_gfx::{draw_scene, SceneObject};
/// let objs = [SceneObject::new(1, 0.5, 0.5, 0.2, 0.0)];
/// let frame = draw_scene(3, &objs, 0.0, 0.4);
/// assert_eq!(frame.id(), 3);
/// // The object's green dominates its center pixel.
/// let px = frame.pixel(48, 27);
/// assert!(px[1] > px[0] && px[1] > px[2]);
/// ```
pub fn draw_scene(frame_id: u64, objects: &[SceneObject], camera: f64, ambient: f64) -> Frame {
    let mut frame = Frame::new(frame_id);
    draw_scene_into(&mut frame, objects, camera, ambient);
    frame
}

/// [`draw_scene`] into an existing frame, overwriting every pixel.
///
/// Allocation-free, so pooled render paths can reuse one [`Frame`] buffer;
/// the caller re-stamps the id via [`Frame::set_id`]. Pixels are bit-identical
/// to [`draw_scene`]'s and to [`draw_scene_into_reference`]'s: every
/// floating-point expression is the reference's, evaluated in the same order;
/// only the stores (whole rows through [`Frame::bytes_mut`]) and the
/// float-to-byte conversion ([`trunc_u8`]) differ.
pub fn draw_scene_into(frame: &mut Frame, objects: &[SceneObject], camera: f64, ambient: f64) {
    let amb = ambient_scale(ambient);
    let col = background_columns(camera);
    for (y, row_px) in frame.bytes_mut().chunks_exact_mut(ROW_BYTES).enumerate() {
        let row = background_row(y);
        for (px, c) in row_px.chunks_exact_mut(3).zip(&col) {
            // v ∈ [7.5, 125): row ∈ [40, 100), c ∈ [-25, 25], amb ∈ [0.5, 1].
            let v = (row + c) * amb;
            px.copy_from_slice(&[trunc_u8(v * 0.80), trunc_u8(v * 0.74), trunc_u8(v * 0.68)]);
        }
    }
    for obj in objects {
        draw_object(frame, obj);
    }
}

/// The seed implementation of [`draw_scene_into`]: per-pixel
/// [`Frame::set_pixel`] stores and saturating `as u8` conversions. Kept as
/// the bit-exactness reference for tests and benchmarks.
pub fn draw_scene_into_reference(
    frame: &mut Frame,
    objects: &[SceneObject],
    camera: f64,
    ambient: f64,
) {
    let amb = ambient_scale(ambient);
    let col = background_columns(camera);
    for y in 0..SIM_HEIGHT {
        let row = background_row(y);
        for (x, c) in col.iter().enumerate() {
            let v = (row + c) * amb;
            frame.set_pixel(x, y, [(v * 0.80) as u8, (v * 0.74) as u8, (v * 0.68) as u8]);
        }
    }
    for obj in objects {
        draw_object_reference(frame, obj);
    }
}

/// Bytes per raster row.
const ROW_BYTES: usize = SIM_WIDTH * 3;

/// `2^52`: adding it to a non-negative `f64` below `2^52` that is already an
/// integer leaves that integer in the low mantissa bits.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// `y as u8` for `y ∈ [0, 256)`, without the saturating conversion's range
/// checks: `y.trunc() + 2^52` is exact for integers below `2^52`, so the low
/// byte of its bit pattern is `trunc(y)`. Every value the rasterizer converts
/// lies in that range (background `v · 0.80 < 100`, object channels
/// `≤ 220 · 1.0`); the contract is checked in debug builds.
#[inline]
pub fn trunc_u8(y: f64) -> u8 {
    debug_assert!((0.0..256.0).contains(&y), "trunc_u8 out of range: {y}");
    (y.trunc() + TWO_POW_52).to_bits() as u8
}

/// Background brightness factor in `[0.5, 1]`.
fn ambient_scale(ambient: f64) -> f64 {
    0.5 + 0.5 * ambient.clamp(0.0, 1.0)
}

/// Background: a warm-neutral vertical gradient panned by the camera.
/// Neutral hue keeps every palette color separable from the backdrop.
/// The horizontal term depends only on x, so its sin() is hoisted out of
/// the row loop (one evaluation per column instead of per pixel).
fn background_columns(camera: f64) -> [f64; SIM_WIDTH] {
    let mut col = [0.0f64; SIM_WIDTH];
    for (x, c) in col.iter_mut().enumerate() {
        let fx = (x as f64 / SIM_WIDTH as f64 + camera).rem_euclid(1.0);
        // Non-harmonic horizontal frequency so no camera shift maps the
        // background onto itself.
        *c = 25.0 * (fx * std::f64::consts::TAU * 1.37).sin();
    }
    col
}

/// The vertical gradient term of row `y`, in `[40, 100)`.
fn background_row(y: usize) -> f64 {
    let fy = y as f64 / SIM_HEIGHT as f64;
    40.0 + 60.0 * fy
}

/// An object's raster footprint: center, half extent (at least one pixel)
/// and clipped pixel bounds (`x0..x1`, `y0..y1`).
struct Footprint {
    cx: f64,
    cy: f64,
    half: f64,
    x0: usize,
    x1: usize,
    y0: usize,
    y1: usize,
}

impl Footprint {
    fn of(obj: &SceneObject) -> Self {
        let half_h = ((obj.size * SIM_HEIGHT as f64) / 2.0).max(1.0);
        let half_w = half_h; // square footprint in raster pixels
        let cx = obj.x * SIM_WIDTH as f64;
        let cy = obj.y * SIM_HEIGHT as f64;
        Footprint {
            cx,
            cy,
            half: half_h,
            x0: (cx - half_w).floor().max(0.0) as usize,
            x1: ((cx + half_w).ceil() as usize).min(SIM_WIDTH),
            y0: (cy - half_h).floor().max(0.0) as usize,
            y1: ((cy + half_h).ceil() as usize).min(SIM_HEIGHT),
        }
    }
}

/// Phase-dependent shading in `[0.65, 1]`: same class, different pixels.
#[inline]
fn shade(phase: f64, dx: f64, dy: f64) -> f64 {
    0.65 + 0.35
        * ((phase + dx * 0.25 + dy * 0.25) * std::f64::consts::TAU)
            .sin()
            .abs()
}

fn draw_object(frame: &mut Frame, obj: &SceneObject) {
    let color = PALETTE[(obj.class & 0x0f) as usize].map(f64::from);
    let fp = Footprint::of(obj);
    // An object given out-of-range fields directly can lie wholly off-frame.
    if fp.x0 >= fp.x1 {
        return;
    }
    // `half ≥ 1`, so the reference's `half.max(1e-9)` divisor is `half`.
    let dxs = (fp.x0..fp.x1).map(|x| (x as f64 + 0.5 - fp.cx) / fp.half);
    let rows = frame.bytes_mut().chunks_exact_mut(ROW_BYTES);
    for (y, row_px) in rows.enumerate().take(fp.y1).skip(fp.y0) {
        let dy = (y as f64 + 0.5 - fp.cy) / fp.half;
        let span = row_px[fp.x0 * 3..fp.x1 * 3].chunks_exact_mut(3);
        for (px, dx) in span.zip(dxs.clone()) {
            // Rounded silhouette: skip pixels outside the ellipse.
            if dx * dx + dy * dy > 1.0 {
                continue;
            }
            let s = shade(obj.phase, dx, dy);
            px.copy_from_slice(&color.map(|c| trunc_u8(c * s)));
        }
    }
}

fn draw_object_reference(frame: &mut Frame, obj: &SceneObject) {
    let color = PALETTE[(obj.class & 0x0f) as usize];
    let fp = Footprint::of(obj);
    let (half_h, half_w) = (fp.half, fp.half);
    for y in fp.y0..fp.y1 {
        for x in fp.x0..fp.x1 {
            // Rounded silhouette: skip pixels outside the ellipse.
            let dx = (x as f64 + 0.5 - fp.cx) / half_w.max(1e-9);
            let dy = (y as f64 + 0.5 - fp.cy) / half_h.max(1e-9);
            if dx * dx + dy * dy > 1.0 {
                continue;
            }
            let shade = shade(obj.phase, dx, dy);
            let rgb = [
                (f64::from(color[0]) * shade) as u8,
                (f64::from(color[1]) * shade) as u8,
                (f64::from(color[2]) * shade) as u8,
            ];
            frame.set_pixel(x, y, rgb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_scene_is_pure_background() {
        let f = draw_scene(0, &[], 0.0, 0.5);
        // Background is warm-neutral: red ≥ green ≥ blue everywhere.
        let px = f.pixel(10, 10);
        assert!(px[0] >= px[1] && px[1] >= px[2]);
    }

    #[test]
    fn object_center_takes_class_color() {
        for class in 0..6u8 {
            let obj = SceneObject::new(class, 0.5, 0.5, 0.3, 0.2);
            let f = draw_scene(0, &[obj], 0.0, 0.5);
            let px = f.pixel(48, 27);
            let base = PALETTE[class as usize];
            // The dominant channel of the palette entry stays dominant.
            let dom = (0..3).max_by_key(|&i| base[i]).unwrap();
            let got_dom = (0..3).max_by_key(|&i| px[i]).unwrap();
            assert_eq!(dom, got_dom, "class {class}: {px:?} vs {base:?}");
        }
    }

    #[test]
    fn phase_changes_pixels_but_not_class_hue() {
        let a = draw_scene(0, &[SceneObject::new(2, 0.5, 0.5, 0.3, 0.0)], 0.0, 0.5);
        let b = draw_scene(1, &[SceneObject::new(2, 0.5, 0.5, 0.3, 0.4)], 0.0, 0.5);
        assert!(a.diff_fraction(&b) > 0.0, "phase must alter pixels");
        let pa = a.pixel(48, 27);
        let pb = b.pixel(48, 27);
        assert!(pa[2] > pa[0] && pb[2] > pb[0], "both stay blue-dominant");
    }

    #[test]
    fn camera_pan_changes_background() {
        let a = draw_scene(0, &[], 0.0, 0.5);
        let b = draw_scene(1, &[], 0.13, 0.5);
        assert!(a.diff_fraction(&b) > 0.3);
    }

    #[test]
    fn position_moves_object() {
        // A blue object: blue dominates at the left center only in the
        // `left` frame; the warm-neutral background dominates otherwise.
        let left = draw_scene(0, &[SceneObject::new(2, 0.2, 0.5, 0.2, 0.0)], 0.0, 0.5);
        let right = draw_scene(1, &[SceneObject::new(2, 0.8, 0.5, 0.2, 0.0)], 0.0, 0.5);
        let lx = (0.2 * SIM_WIDTH as f64) as usize;
        let px_l = left.pixel(lx, 27);
        let px_r = right.pixel(lx, 27);
        assert!(px_l[2] > px_l[0], "object pixel must be blue: {px_l:?}");
        assert!(
            px_r[0] >= px_r[2],
            "background pixel must be warm: {px_r:?}"
        );
    }

    #[test]
    fn constructor_clamps() {
        let o = SceneObject::new(3, -1.0, 2.0, 5.0, 1.75);
        assert_eq!(o.x, 0.0);
        assert_eq!(o.y, 1.0);
        assert_eq!(o.size, 1.0);
        assert!((o.phase - 0.75).abs() < 1e-12);
    }

    #[test]
    fn draw_scene_into_is_bit_identical_to_draw_scene() {
        let objs = [
            SceneObject::new(3, 0.31, 0.62, 0.21, 0.13),
            SceneObject::new(9, 0.77, 0.18, 0.09, 0.88),
        ];
        for (camera, ambient) in [(0.0, 0.5), (0.42, 0.9), (0.999, 0.0), (0.1, 1.7)] {
            let fresh = draw_scene(5, &objs, camera, ambient);
            // Reuse a dirty frame: every pixel must be overwritten.
            let mut reused = draw_scene(4, &[SceneObject::new(1, 0.5, 0.5, 0.9, 0.0)], 0.7, 1.0);
            reused.set_id(5);
            draw_scene_into(&mut reused, &objs, camera, ambient);
            assert_eq!(fresh, reused, "camera={camera} ambient={ambient}");
        }
    }

    #[test]
    fn size_scales_footprint() {
        let small = draw_scene(0, &[SceneObject::new(1, 0.5, 0.5, 0.05, 0.0)], 0.0, 0.5);
        let big = draw_scene(1, &[SceneObject::new(1, 0.5, 0.5, 0.5, 0.0)], 0.0, 0.5);
        let bg = draw_scene(2, &[], 0.0, 0.5);
        assert!(big.diff_fraction(&bg) > small.diff_fraction(&bg) * 4.0);
    }
}
