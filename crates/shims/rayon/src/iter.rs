//! `par_iter().map(..).collect()` for slices, chunked over scoped
//! threads with order-preserving concatenation.

/// Entry point: `&self -> parallel iterator` (rayon's
/// `IntoParallelRefIterator`). Implemented for slices; `Vec<T>` gets it
/// through auto-deref.
pub trait IntoParallelRefIterator<'a> {
    type Item: 'a;
    type Iter;

    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParIter<'a, T>;

    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap {
            slice: self.slice,
            f,
        }
    }
}

pub struct ParMap<'a, T, F> {
    slice: &'a [T],
    f: F,
}

/// The terminal operations a mapped parallel iterator supports.
pub trait ParallelIterator {
    type Item: Send;

    fn collect_vec(self) -> Vec<Self::Item>;

    fn collect<C: FromIterator<Self::Item>>(self) -> C
    where
        Self: Sized,
    {
        self.collect_vec().into_iter().collect()
    }
}

impl<'a, T, R, F> ParallelIterator for ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    type Item = R;

    fn collect_vec(self) -> Vec<R> {
        let n = self.slice.len();
        let workers = super::current_num_threads().min(n.max(1));
        if workers <= 1 || n <= 1 {
            return self.slice.iter().map(&self.f).collect();
        }
        let chunk = n.div_ceil(workers);
        let f = &self.f;
        let map = move |part: &'a [T]| part.iter().map(f).collect::<Vec<R>>();
        let mut parts = self.slice.chunks(chunk);
        let first = parts.next().expect("n > 1, so there is a first chunk");
        // the caller takes one share: it maps the first chunk itself
        // while `workers - 1` spawned threads map the rest
        let mut out = Vec::with_capacity(n);
        std::thread::scope(|s| {
            let handles: Vec<_> = parts.map(|part| s.spawn(move || map(part))).collect();
            out.extend(map(first));
            // a worker's panic re-raises with its own payload, as in
            // real rayon, so the caller sees the original message
            for h in handles {
                out.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
        });
        out
    }
}
