//! The per-pixel kernels against their seed implementations: the
//! rasterizer, frame entropy and the changed-pixel fraction must agree
//! bit for bit with `draw_scene_into_reference`, `Frame::entropy_reference`
//! and `Frame::diff_fraction_reference` on random scenes and frames.

use proptest::prelude::*;

use pictor_gfx::raster::trunc_u8;
use pictor_gfx::{draw_scene_into, draw_scene_into_reference, Frame, SceneObject};

/// Deterministic generator decoupled from the strategy RNG, so scene size
/// and scene content vary independently.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }

    /// A coordinate in `[0, 1]`, on a frame edge one time in four.
    fn coord(&mut self) -> f64 {
        match self.next() % 8 {
            0 => 0.0,
            1 => 1.0,
            _ => self.unit(),
        }
    }
}

/// `n` objects of any class, position (frame edges included), size
/// (`1.0` and the `0.01` floor included) and phase.
fn random_objects(seed: u64, n: usize) -> Vec<SceneObject> {
    let mut g = Lcg(seed);
    (0..n)
        .map(|_| {
            let class = g.next() as u8;
            let (x, y) = (g.coord(), g.coord());
            let size = match g.next() % 6 {
                0 => 1.0,
                1 => 0.0,
                _ => g.unit() * 0.6,
            };
            let phase = g.unit() * 4.0 - 2.0;
            SceneObject::new(class, x, y, size, phase)
        })
        .collect()
}

/// A frame of random bytes (pooled frames arrive dirty).
fn noise_frame(seed: u64) -> Frame {
    let mut g = Lcg(seed);
    let mut f = Frame::new(seed);
    for b in f.bytes_mut() {
        *b = g.next() as u8;
    }
    f
}

proptest! {
    #[test]
    fn draw_scene_into_matches_reference(
        n in 0usize..12,
        seed in any::<u64>(),
        camera in -1e3f64..1e3,
        ambient in -1.0f64..2.0,
    ) {
        let objects = random_objects(seed, n);
        let mut fast = noise_frame(seed ^ 1);
        let mut reference = noise_frame(seed ^ 2);
        draw_scene_into(&mut fast, &objects, camera, ambient);
        draw_scene_into_reference(&mut reference, &objects, camera, ambient);
        prop_assert!(
            fast.bytes() == reference.bytes(),
            "objects={objects:?} camera={camera} ambient={ambient}"
        );
    }

    #[test]
    fn entropy_matches_reference(seed in any::<u64>(), n in 0usize..12, camera in -1e3f64..1e3) {
        let mut drawn = Frame::new(0);
        draw_scene_into(&mut drawn, &random_objects(seed, n), camera, 0.7);
        for f in [drawn, noise_frame(seed), Frame::new(1)] {
            prop_assert_eq!(f.entropy().to_bits(), f.entropy_reference().to_bits());
        }
    }

    #[test]
    fn diff_fraction_matches_reference(
        seed in any::<u64>(),
        camera in -1e3f64..1e3,
        step in 0.0f64..0.05,
        flips in 0usize..64,
    ) {
        let objects = random_objects(seed, 6);
        let mut a = Frame::new(0);
        let mut b = Frame::new(1);
        draw_scene_into(&mut a, &objects, camera, 0.6);
        draw_scene_into(&mut b, &objects, camera + step, 0.6);
        // A copy of `a` with single bits flipped: every byte position of an
        // 8-pixel chunk, and so every channel, gets exercised.
        let mut c = a.clone();
        let mut g = Lcg(seed);
        for _ in 0..flips {
            let i = (g.next() % c.bytes().len() as u64) as usize;
            c.bytes_mut()[i] ^= 1 << (g.next() % 8);
        }
        let noise = noise_frame(seed);
        for (x, y) in [(&a, &b), (&a, &c), (&a, &a), (&a, &noise), (&noise, &b)] {
            prop_assert_eq!(
                x.diff_fraction(y).to_bits(),
                x.diff_fraction_reference(y).to_bits()
            );
        }
    }
}

/// A single changed byte counts as exactly one changed pixel, whatever its
/// position in the frame.
#[test]
fn diff_fraction_sees_every_byte() {
    let a = Frame::new(0);
    let mut b = Frame::new(1);
    let one_pixel = 1.0 / (a.width() * a.height()) as f64;
    for i in 0..a.bytes().len() {
        b.bytes_mut()[i] = 0x80;
        assert_eq!(a.diff_fraction(&b), one_pixel, "byte {i}");
        b.bytes_mut()[i] = 0;
    }
}

/// `trunc_u8` equals the saturating `as u8` at every integer of its
/// domain `[0, 256)` and at the neighbouring floats on both sides.
#[test]
fn trunc_u8_matches_cast_at_every_integer_boundary() {
    for k in 0..=256u32 {
        let k = f64::from(k);
        for y in [k.next_down(), k, k.next_up()] {
            if (0.0..256.0).contains(&y) {
                assert_eq!(trunc_u8(y), y as u8, "y = {y:e}");
            }
        }
    }
}

/// The range contract is checked in debug builds.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "out of range")]
fn trunc_u8_rejects_values_outside_its_domain() {
    let _ = trunc_u8(256.0);
}
