//! The vision variance gate's statistic against its seed implementation:
//! `cell_std` must agree bit for bit with `cell_std_reference` on every
//! cell of random scenes and random frames.

use proptest::prelude::*;

use pictor_client::vision::{cell_std, cell_std_reference, GRID_H, GRID_W};
use pictor_gfx::{draw_scene, Frame, SceneObject};

fn noise_frame(seed: u64) -> Frame {
    let mut state = seed;
    let mut f = Frame::new(seed);
    for b in f.bytes_mut() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *b = (state >> 56) as u8;
    }
    f
}

fn assert_every_cell_matches(frame: &Frame) -> Result<(), TestCaseError> {
    for cy in 0..GRID_H {
        for cx in 0..GRID_W {
            prop_assert_eq!(
                cell_std(frame, cx, cy).to_bits(),
                cell_std_reference(frame, cx, cy).to_bits(),
                "cell ({}, {})",
                cx,
                cy
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn cell_std_matches_reference_on_scenes(
        (class, x, y) in (any::<u8>(), 0.0f64..1.0, 0.0f64..1.0),
        (size, phase) in (0.01f64..1.0, 0.0f64..1.0),
        camera in -1e3f64..1e3,
        ambient in -1.0f64..2.0,
    ) {
        let objects = [
            SceneObject::new(class, x, y, size, phase),
            SceneObject::new(class.wrapping_add(5), 1.0 - x, y, size / 2.0, 1.0 - phase),
        ];
        assert_every_cell_matches(&draw_scene(0, &objects, camera, ambient))?;
    }

    #[test]
    fn cell_std_matches_reference_on_noise(seed in any::<u64>()) {
        assert_every_cell_matches(&noise_frame(seed))?;
    }
}

/// Extreme cells: flat black, flat white and alternating 0/255 bytes.
#[test]
fn cell_std_matches_reference_on_extremes() {
    let black = Frame::new(0);
    let mut white = Frame::new(1);
    white.bytes_mut().fill(255);
    let mut stripes = Frame::new(2);
    for (i, b) in stripes.bytes_mut().iter_mut().enumerate() {
        *b = if i % 2 == 0 { 0 } else { 255 };
    }
    for f in [&black, &white, &stripes] {
        assert_every_cell_matches(f).unwrap();
    }
}
