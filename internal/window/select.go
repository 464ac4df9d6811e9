package window

// SelectLast reorders s so that s[:k] holds the k elements that come last
// under later — a strict total order, later(a, b) meaning a sorts after
// b — in no particular order among themselves: a quickselect, linear in
// len(s) on the randomly ordered slices a map iteration yields. It is how
// a full write buffer picks what to spill: the RMW store passes "the
// window ends later", the AUR store "the estimated trigger time is
// later", and each evicts s[:k], the state that will be needed last.
func SelectLast[T any](s []T, k int, later func(a, b T) bool) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		// Median-of-three pivot, moved to lo.
		mid := lo + (hi-lo)/2
		if later(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if later(s[hi], s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if later(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
		}
		s[lo], s[mid] = s[mid], s[lo]
		pivot := s[lo]
		// Hoare partition: s[lo..j] come no earlier than the pivot,
		// s[j+1..hi] no later.
		i, j := lo-1, hi+1
		for {
			for i++; later(s[i], pivot); i++ {
			}
			for j--; later(pivot, s[j]); j-- {
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		if k <= j+1 {
			hi = j
		} else {
			lo = j + 1
		}
	}
}
