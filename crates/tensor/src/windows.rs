//! Windows as the scoring walks read them: where they lie, in two pieces.
//!
//! A vehicle's newest window sits in its ring buffer as two runs of rows,
//! the older ones up to the end of the ring and the newer ones from its
//! start. Both scoring walks copy a window row by row into a
//! zero-bordered plane of their own anyway, so they take it as those two
//! [`Pieces`], `older ++ newer`, and nothing copies it into a batch
//! first. A window that is contiguous — a slice of a flat batch, a spill
//! buffer — is `[window, &[]]`.

use std::ops::Range;

/// One window as two pieces read in order, `older ++ newer`. Either may
/// be empty; together they hold exactly one window's floats.
pub type Pieces<'a> = [&'a [f32]; 2];

/// A batch of windows the scoring walks read where they lie, by index.
/// Shared by the threads of a forked call, hence `Sync`.
pub trait Windows: Sync {
    /// Number of windows.
    fn count(&self) -> usize;

    /// The `i`-th window.
    ///
    /// # Panics
    ///
    /// May panic if `i >= self.count()`.
    fn window(&self, i: usize) -> Pieces<'_>;

    /// The windows at `rows`, in order.
    fn pieces(&self, rows: Range<usize>) -> impl ExactSizeIterator<Item = Pieces<'_>> {
        rows.map(|i| self.window(i))
    }
}

impl Windows for [Pieces<'_>] {
    fn count(&self) -> usize {
        self.len()
    }

    fn window(&self, i: usize) -> Pieces<'_> {
        self[i]
    }
}

/// Contiguous windows of one length, back to back: a flat batch, each
/// window one piece.
#[derive(Debug, Clone, Copy)]
pub struct Flat<'a> {
    floats: &'a [f32],
    len: usize,
}

impl<'a> Flat<'a> {
    /// `floats` cut into windows of `len` floats.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero with `floats` non-empty, or `floats` is not
    /// a whole number of windows.
    pub fn new(floats: &'a [f32], len: usize) -> Self {
        assert!(
            floats.len().checked_rem(len).unwrap_or(floats.len()) == 0,
            "{} floats are not whole windows of {len}",
            floats.len()
        );
        Flat { floats, len }
    }
}

impl Windows for Flat<'_> {
    fn count(&self) -> usize {
        self.floats.len().checked_div(self.len).unwrap_or(0)
    }

    fn window(&self, i: usize) -> Pieces<'_> {
        [&self.floats[i * self.len..][..self.len], &[]]
    }
}

/// Copies one window of `len` floats, given as `pieces`, into the
/// interior of a plane whose rows of `row` floats start where
/// `row_start(y)` says, through `put(src, dst)`. A piece boundary may
/// fall anywhere: a piece is cut at row ends, and `put` sees each cut.
///
/// # Panics
///
/// Panics if the pieces do not hold exactly `len` floats.
pub fn scatter_rows<T>(
    pieces: Pieces<'_>,
    len: usize,
    row: usize,
    row_start: impl Fn(usize) -> usize,
    plane: &mut [T],
    mut put: impl FnMut(&[f32], &mut [T]),
) {
    assert_eq!(
        pieces[0].len() + pieces[1].len(),
        len,
        "pieces of {} + {} floats are not one window of {len}",
        pieces[0].len(),
        pieces[1].len()
    );
    // Row `y`, column `x` of the next float: counted, not divided out,
    // since this runs once per row of every layer of every window.
    let (mut y, mut x) = (0, 0);
    for mut piece in pieces {
        while !piece.is_empty() {
            let (src, rest) = piece.split_at((row - x).min(piece.len()));
            put(src, &mut plane[row_start(y) + x..][..src.len()]);
            (piece, x) = (rest, x + src.len());
            if x == row {
                (y, x) = (y + 1, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_split_anywhere_fills_the_plane_the_whole_window_does() {
        // Three rows of four into a plane with stride 6 and origin 7.
        let window: Vec<f32> = (1..=12).map(|v| v as f32).collect();
        let fill = |pieces: Pieces<'_>| {
            let mut plane = vec![0.0f32; 24];
            scatter_rows(
                pieces,
                12,
                4,
                |y| 7 + 6 * y,
                &mut plane,
                |s, d| d.copy_from_slice(s),
            );
            plane
        };
        let whole = fill([&window, &[]]);
        assert_eq!(&whole[7..11], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&whole[19..23], &[9.0, 10.0, 11.0, 12.0]);
        for cut in 0..=12 {
            let (older, newer) = window.split_at(cut);
            assert_eq!(fill([older, newer]), whole, "cut at {cut}");
        }
    }

    #[test]
    fn flat_windows_are_one_piece_each() {
        let floats = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let flat = Flat::new(&floats, 3);
        assert_eq!(flat.count(), 2);
        let got: Vec<Pieces<'_>> = flat.pieces(0..2).collect();
        assert_eq!(got, [[&floats[..3], &[][..]], [&floats[3..], &[][..]]]);
        assert_eq!(Flat::new(&[], 0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "not whole windows")]
    fn a_partial_window_is_refused() {
        Flat::new(&[0.0; 7], 3);
    }
}
