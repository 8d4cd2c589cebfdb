// Code generated by "go run ./cmd/netgen -preset sortkernels"; DO NOT EDIT.

package sortkernels

import "cmp"

// sort2MinMax sorts s[:2] in place with a sorting-network kernel:
// depth 1, size 1, depth-optimal (proven minimum 1).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort2MinMax[T cmp.Ordered](s []T) {
	_ = s[1]
	v0, v1 := s[0], s[1]

	// level 1
	v0, v1 = min(v0, v1), max(v0, v1)

	s[0], s[1] = v0, v1
}

// sort3MinMax sorts s[:3] in place with a sorting-network kernel:
// depth 3, size 3, depth-optimal (proven minimum 3).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort3MinMax[T cmp.Ordered](s []T) {
	_ = s[2]
	v0, v1, v2 := s[0], s[1], s[2]

	// level 1
	v0, v2 = min(v0, v2), max(v0, v2)

	// level 2
	v0, v1 = min(v0, v1), max(v0, v1)

	// level 3
	v1, v2 = min(v1, v2), max(v1, v2)

	s[0], s[1], s[2] = v0, v1, v2
}

// sort4MinMax sorts s[:4] in place with a sorting-network kernel:
// depth 3, size 5, depth-optimal (proven minimum 3).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort4MinMax[T cmp.Ordered](s []T) {
	_ = s[3]
	v0, v1, v2, v3 := s[0], s[1], s[2], s[3]

	// level 1
	v0, v2 = min(v0, v2), max(v0, v2)
	v1, v3 = min(v1, v3), max(v1, v3)

	// level 2
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v3 = min(v2, v3), max(v2, v3)

	// level 3
	v1, v2 = min(v1, v2), max(v1, v2)

	s[0], s[1], s[2], s[3] = v0, v1, v2, v3
}

// sort5MinMax sorts s[:5] in place with a sorting-network kernel:
// depth 5, size 9, depth-optimal (proven minimum 5).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort5MinMax[T cmp.Ordered](s []T) {
	_ = s[4]
	v0, v1, v2, v3, v4 := s[0], s[1], s[2], s[3], s[4]

	// level 1
	v0, v3 = min(v0, v3), max(v0, v3)
	v1, v4 = min(v1, v4), max(v1, v4)

	// level 2
	v0, v2 = min(v0, v2), max(v0, v2)
	v1, v3 = min(v1, v3), max(v1, v3)

	// level 3
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v4 = min(v2, v4), max(v2, v4)

	// level 4
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v4 = min(v3, v4), max(v3, v4)

	// level 5
	v2, v3 = min(v2, v3), max(v2, v3)

	s[0], s[1], s[2], s[3], s[4] = v0, v1, v2, v3, v4
}

// sort6MinMax sorts s[:6] in place with a sorting-network kernel:
// depth 5, size 12, depth-optimal (proven minimum 5).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort6MinMax[T cmp.Ordered](s []T) {
	_ = s[5]
	v0, v1, v2, v3, v4, v5 := s[0], s[1], s[2], s[3], s[4], s[5]

	// level 1
	v0, v5 = min(v0, v5), max(v0, v5)
	v1, v3 = min(v1, v3), max(v1, v3)
	v2, v4 = min(v2, v4), max(v2, v4)

	// level 2
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v4 = min(v3, v4), max(v3, v4)

	// level 3
	v0, v3 = min(v0, v3), max(v0, v3)
	v2, v5 = min(v2, v5), max(v2, v5)

	// level 4
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v5 = min(v4, v5), max(v4, v5)

	// level 5
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v4 = min(v3, v4), max(v3, v4)

	s[0], s[1], s[2], s[3], s[4], s[5] = v0, v1, v2, v3, v4, v5
}

// sort7MinMax sorts s[:7] in place with a sorting-network kernel:
// depth 6, size 16, depth-optimal (proven minimum 6).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort7MinMax[T cmp.Ordered](s []T) {
	_ = s[6]
	v0, v1, v2, v3, v4, v5, v6 := s[0], s[1], s[2], s[3], s[4], s[5], s[6]

	// level 1
	v0, v6 = min(v0, v6), max(v0, v6)
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v5 = min(v4, v5), max(v4, v5)

	// level 2
	v0, v2 = min(v0, v2), max(v0, v2)
	v1, v4 = min(v1, v4), max(v1, v4)
	v3, v6 = min(v3, v6), max(v3, v6)

	// level 3
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v5 = min(v2, v5), max(v2, v5)
	v3, v4 = min(v3, v4), max(v3, v4)

	// level 4
	v1, v2 = min(v1, v2), max(v1, v2)
	v4, v6 = min(v4, v6), max(v4, v6)

	// level 5
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v5 = min(v4, v5), max(v4, v5)

	// level 6
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v4 = min(v3, v4), max(v3, v4)
	v5, v6 = min(v5, v6), max(v5, v6)

	s[0], s[1], s[2], s[3], s[4], s[5], s[6] = v0, v1, v2, v3, v4, v5, v6
}

// sort8MinMax sorts s[:8] in place with a sorting-network kernel:
// depth 6, size 19, depth-optimal (proven minimum 6).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort8MinMax[T cmp.Ordered](s []T) {
	_ = s[7]
	v0, v1, v2, v3, v4, v5, v6, v7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]

	// level 1
	v0, v2 = min(v0, v2), max(v0, v2)
	v1, v3 = min(v1, v3), max(v1, v3)
	v4, v6 = min(v4, v6), max(v4, v6)
	v5, v7 = min(v5, v7), max(v5, v7)

	// level 2
	v0, v4 = min(v0, v4), max(v0, v4)
	v1, v5 = min(v1, v5), max(v1, v5)
	v2, v6 = min(v2, v6), max(v2, v6)
	v3, v7 = min(v3, v7), max(v3, v7)

	// level 3
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v5 = min(v4, v5), max(v4, v5)
	v6, v7 = min(v6, v7), max(v6, v7)

	// level 4
	v2, v4 = min(v2, v4), max(v2, v4)
	v3, v5 = min(v3, v5), max(v3, v5)

	// level 5
	v1, v4 = min(v1, v4), max(v1, v4)
	v3, v6 = min(v3, v6), max(v3, v6)

	// level 6
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v4 = min(v3, v4), max(v3, v4)
	v5, v6 = min(v5, v6), max(v5, v6)

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = v0, v1, v2, v3, v4, v5, v6, v7
}

// sort9MinMax sorts s[:9] in place with a sorting-network kernel:
// depth 7, size 25, depth-optimal (proven minimum 7).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort9MinMax[T cmp.Ordered](s []T) {
	_ = s[8]
	v0, v1, v2, v3, v4, v5, v6, v7, v8 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8]

	// level 1
	v0, v3 = min(v0, v3), max(v0, v3)
	v1, v7 = min(v1, v7), max(v1, v7)
	v2, v5 = min(v2, v5), max(v2, v5)
	v4, v8 = min(v4, v8), max(v4, v8)

	// level 2
	v0, v7 = min(v0, v7), max(v0, v7)
	v2, v4 = min(v2, v4), max(v2, v4)
	v3, v8 = min(v3, v8), max(v3, v8)
	v5, v6 = min(v5, v6), max(v5, v6)

	// level 3
	v0, v2 = min(v0, v2), max(v0, v2)
	v1, v3 = min(v1, v3), max(v1, v3)
	v4, v5 = min(v4, v5), max(v4, v5)
	v7, v8 = min(v7, v8), max(v7, v8)

	// level 4
	v1, v4 = min(v1, v4), max(v1, v4)
	v3, v6 = min(v3, v6), max(v3, v6)
	v5, v7 = min(v5, v7), max(v5, v7)

	// level 5
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v4 = min(v2, v4), max(v2, v4)
	v3, v5 = min(v3, v5), max(v3, v5)
	v6, v8 = min(v6, v8), max(v6, v8)

	// level 6
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v5 = min(v4, v5), max(v4, v5)
	v6, v7 = min(v6, v7), max(v6, v7)

	// level 7
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v4 = min(v3, v4), max(v3, v4)
	v5, v6 = min(v5, v6), max(v5, v6)

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8] = v0, v1, v2, v3, v4, v5, v6, v7, v8
}

// sort10MinMax sorts s[:10] in place with a sorting-network kernel:
// depth 7, size 31, depth-optimal (proven minimum 7).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort10MinMax[T cmp.Ordered](s []T) {
	_ = s[9]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9]

	// level 1
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v5 = min(v2, v5), max(v2, v5)
	v3, v6 = min(v3, v6), max(v3, v6)
	v4, v7 = min(v4, v7), max(v4, v7)
	v8, v9 = min(v8, v9), max(v8, v9)

	// level 2
	v0, v6 = min(v0, v6), max(v0, v6)
	v1, v8 = min(v1, v8), max(v1, v8)
	v2, v4 = min(v2, v4), max(v2, v4)
	v3, v9 = min(v3, v9), max(v3, v9)
	v5, v7 = min(v5, v7), max(v5, v7)

	// level 3
	v0, v2 = min(v0, v2), max(v0, v2)
	v1, v3 = min(v1, v3), max(v1, v3)
	v4, v5 = min(v4, v5), max(v4, v5)
	v6, v8 = min(v6, v8), max(v6, v8)
	v7, v9 = min(v7, v9), max(v7, v9)

	// level 4
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v7 = min(v2, v7), max(v2, v7)
	v3, v5 = min(v3, v5), max(v3, v5)
	v4, v6 = min(v4, v6), max(v4, v6)
	v8, v9 = min(v8, v9), max(v8, v9)

	// level 5
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v4 = min(v3, v4), max(v3, v4)
	v5, v6 = min(v5, v6), max(v5, v6)
	v7, v8 = min(v7, v8), max(v7, v8)

	// level 6
	v1, v3 = min(v1, v3), max(v1, v3)
	v2, v4 = min(v2, v4), max(v2, v4)
	v5, v7 = min(v5, v7), max(v5, v7)
	v6, v8 = min(v6, v8), max(v6, v8)

	// level 7
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v5 = min(v4, v5), max(v4, v5)
	v6, v7 = min(v6, v7), max(v6, v7)

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9
}

// sort11MinMax sorts s[:11] in place with a sorting-network kernel:
// depth 8, size 35, depth-optimal (proven minimum 8).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort11MinMax[T cmp.Ordered](s []T) {
	_ = s[10]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10]

	// level 1
	v0, v9 = min(v0, v9), max(v0, v9)
	v1, v6 = min(v1, v6), max(v1, v6)
	v2, v4 = min(v2, v4), max(v2, v4)
	v3, v7 = min(v3, v7), max(v3, v7)
	v5, v8 = min(v5, v8), max(v5, v8)

	// level 2
	v0, v1 = min(v0, v1), max(v0, v1)
	v3, v5 = min(v3, v5), max(v3, v5)
	v4, v10 = min(v4, v10), max(v4, v10)
	v6, v9 = min(v6, v9), max(v6, v9)
	v7, v8 = min(v7, v8), max(v7, v8)

	// level 3
	v1, v3 = min(v1, v3), max(v1, v3)
	v2, v5 = min(v2, v5), max(v2, v5)
	v4, v7 = min(v4, v7), max(v4, v7)
	v8, v10 = min(v8, v10), max(v8, v10)

	// level 4
	v0, v4 = min(v0, v4), max(v0, v4)
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v7 = min(v3, v7), max(v3, v7)
	v5, v9 = min(v5, v9), max(v5, v9)
	v6, v8 = min(v6, v8), max(v6, v8)

	// level 5
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v6 = min(v2, v6), max(v2, v6)
	v4, v5 = min(v4, v5), max(v4, v5)
	v7, v8 = min(v7, v8), max(v7, v8)
	v9, v10 = min(v9, v10), max(v9, v10)

	// level 6
	v2, v4 = min(v2, v4), max(v2, v4)
	v3, v6 = min(v3, v6), max(v3, v6)
	v5, v7 = min(v5, v7), max(v5, v7)
	v8, v9 = min(v8, v9), max(v8, v9)

	// level 7
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v4 = min(v3, v4), max(v3, v4)
	v5, v6 = min(v5, v6), max(v5, v6)
	v7, v8 = min(v7, v8), max(v7, v8)

	// level 8
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v5 = min(v4, v5), max(v4, v5)
	v6, v7 = min(v6, v7), max(v6, v7)

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10
}

// sort12MinMax sorts s[:12] in place with a sorting-network kernel:
// depth 8, size 43, depth-optimal (proven minimum 8).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort12MinMax[T cmp.Ordered](s []T) {
	_ = s[11]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11]

	// level 1
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v5 = min(v4, v5), max(v4, v5)
	v6, v7 = min(v6, v7), max(v6, v7)
	v8, v9 = min(v8, v9), max(v8, v9)
	v10, v11 = min(v10, v11), max(v10, v11)

	// level 2
	v0, v6 = min(v0, v6), max(v0, v6)
	v1, v7 = min(v1, v7), max(v1, v7)
	v2, v9 = min(v2, v9), max(v2, v9)
	v3, v8 = min(v3, v8), max(v3, v8)
	v4, v10 = min(v4, v10), max(v4, v10)
	v5, v11 = min(v5, v11), max(v5, v11)

	// level 3
	v0, v11 = min(v0, v11), max(v0, v11)
	v1, v3 = min(v1, v3), max(v1, v3)
	v2, v5 = min(v2, v5), max(v2, v5)
	v4, v7 = min(v4, v7), max(v4, v7)
	v6, v9 = min(v6, v9), max(v6, v9)
	v8, v10 = min(v8, v10), max(v8, v10)

	// level 4
	v0, v2 = min(v0, v2), max(v0, v2)
	v1, v4 = min(v1, v4), max(v1, v4)
	v3, v5 = min(v3, v5), max(v3, v5)
	v6, v8 = min(v6, v8), max(v6, v8)
	v7, v10 = min(v7, v10), max(v7, v10)
	v9, v11 = min(v9, v11), max(v9, v11)

	// level 5
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v4 = min(v2, v4), max(v2, v4)
	v3, v8 = min(v3, v8), max(v3, v8)
	v7, v9 = min(v7, v9), max(v7, v9)
	v10, v11 = min(v10, v11), max(v10, v11)

	// level 6
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v6 = min(v3, v6), max(v3, v6)
	v4, v7 = min(v4, v7), max(v4, v7)
	v5, v8 = min(v5, v8), max(v5, v8)
	v9, v10 = min(v9, v10), max(v9, v10)

	// level 7
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v6 = min(v4, v6), max(v4, v6)
	v5, v7 = min(v5, v7), max(v5, v7)
	v8, v9 = min(v8, v9), max(v8, v9)

	// level 8
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v4 = min(v3, v4), max(v3, v4)
	v5, v6 = min(v5, v6), max(v5, v6)
	v7, v8 = min(v7, v8), max(v7, v8)
	v9, v10 = min(v9, v10), max(v9, v10)

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11
}

// sort13MinMax sorts s[:13] in place with a sorting-network kernel:
// depth 9, size 48, depth-optimal (proven minimum 9).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort13MinMax[T cmp.Ordered](s []T) {
	_ = s[12]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12]

	// level 1
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v5 = min(v4, v5), max(v4, v5)
	v6, v7 = min(v6, v7), max(v6, v7)
	v8, v9 = min(v8, v9), max(v8, v9)
	v10, v11 = min(v10, v11), max(v10, v11)

	// level 2
	v0, v2 = min(v0, v2), max(v0, v2)
	v1, v3 = min(v1, v3), max(v1, v3)
	v4, v6 = min(v4, v6), max(v4, v6)
	v5, v7 = min(v5, v7), max(v5, v7)
	v8, v10 = min(v8, v10), max(v8, v10)
	v9, v11 = min(v9, v11), max(v9, v11)

	// level 3
	v0, v4 = min(v0, v4), max(v0, v4)
	v1, v6 = min(v1, v6), max(v1, v6)
	v2, v5 = min(v2, v5), max(v2, v5)
	v3, v7 = min(v3, v7), max(v3, v7)
	v8, v12 = min(v8, v12), max(v8, v12)

	// level 4
	v0, v8 = min(v0, v8), max(v0, v8)
	v1, v9 = min(v1, v9), max(v1, v9)
	v2, v10 = min(v2, v10), max(v2, v10)
	v3, v11 = min(v3, v11), max(v3, v11)
	v4, v12 = min(v4, v12), max(v4, v12)

	// level 5
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v12 = min(v3, v12), max(v3, v12)
	v4, v8 = min(v4, v8), max(v4, v8)
	v5, v9 = min(v5, v9), max(v5, v9)
	v6, v10 = min(v6, v10), max(v6, v10)
	v7, v11 = min(v7, v11), max(v7, v11)

	// level 6
	v2, v8 = min(v2, v8), max(v2, v8)
	v3, v10 = min(v3, v10), max(v3, v10)
	v5, v12 = min(v5, v12), max(v5, v12)
	v6, v9 = min(v6, v9), max(v6, v9)

	// level 7
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v8 = min(v3, v8), max(v3, v8)
	v5, v6 = min(v5, v6), max(v5, v6)
	v7, v12 = min(v7, v12), max(v7, v12)
	v9, v10 = min(v9, v10), max(v9, v10)

	// level 8
	v2, v4 = min(v2, v4), max(v2, v4)
	v3, v5 = min(v3, v5), max(v3, v5)
	v6, v8 = min(v6, v8), max(v6, v8)
	v7, v9 = min(v7, v9), max(v7, v9)
	v10, v12 = min(v10, v12), max(v10, v12)

	// level 9
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v4 = min(v3, v4), max(v3, v4)
	v5, v6 = min(v5, v6), max(v5, v6)
	v7, v8 = min(v7, v8), max(v7, v8)
	v9, v10 = min(v9, v10), max(v9, v10)
	v11, v12 = min(v11, v12), max(v11, v12)

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12
}

// sort14MinMax sorts s[:14] in place with a sorting-network kernel:
// depth 9, size 53, depth-optimal (proven minimum 9).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort14MinMax[T cmp.Ordered](s []T) {
	_ = s[13]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13]

	// level 1
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v5 = min(v4, v5), max(v4, v5)
	v6, v7 = min(v6, v7), max(v6, v7)
	v8, v9 = min(v8, v9), max(v8, v9)
	v10, v11 = min(v10, v11), max(v10, v11)
	v12, v13 = min(v12, v13), max(v12, v13)

	// level 2
	v0, v2 = min(v0, v2), max(v0, v2)
	v1, v3 = min(v1, v3), max(v1, v3)
	v4, v6 = min(v4, v6), max(v4, v6)
	v5, v7 = min(v5, v7), max(v5, v7)
	v8, v10 = min(v8, v10), max(v8, v10)
	v9, v11 = min(v9, v11), max(v9, v11)

	// level 3
	v0, v4 = min(v0, v4), max(v0, v4)
	v1, v6 = min(v1, v6), max(v1, v6)
	v2, v5 = min(v2, v5), max(v2, v5)
	v3, v7 = min(v3, v7), max(v3, v7)
	v8, v12 = min(v8, v12), max(v8, v12)
	v10, v13 = min(v10, v13), max(v10, v13)

	// level 4
	v0, v8 = min(v0, v8), max(v0, v8)
	v1, v9 = min(v1, v9), max(v1, v9)
	v2, v10 = min(v2, v10), max(v2, v10)
	v3, v11 = min(v3, v11), max(v3, v11)
	v4, v12 = min(v4, v12), max(v4, v12)
	v5, v13 = min(v5, v13), max(v5, v13)

	// level 5
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v12 = min(v3, v12), max(v3, v12)
	v4, v8 = min(v4, v8), max(v4, v8)
	v5, v9 = min(v5, v9), max(v5, v9)
	v6, v10 = min(v6, v10), max(v6, v10)
	v7, v11 = min(v7, v11), max(v7, v11)

	// level 6
	v2, v8 = min(v2, v8), max(v2, v8)
	v3, v10 = min(v3, v10), max(v3, v10)
	v5, v12 = min(v5, v12), max(v5, v12)
	v6, v9 = min(v6, v9), max(v6, v9)
	v7, v13 = min(v7, v13), max(v7, v13)

	// level 7
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v8 = min(v3, v8), max(v3, v8)
	v5, v6 = min(v5, v6), max(v5, v6)
	v7, v12 = min(v7, v12), max(v7, v12)
	v9, v10 = min(v9, v10), max(v9, v10)

	// level 8
	v2, v4 = min(v2, v4), max(v2, v4)
	v3, v5 = min(v3, v5), max(v3, v5)
	v6, v8 = min(v6, v8), max(v6, v8)
	v7, v9 = min(v7, v9), max(v7, v9)
	v10, v12 = min(v10, v12), max(v10, v12)
	v11, v13 = min(v11, v13), max(v11, v13)

	// level 9
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v4 = min(v3, v4), max(v3, v4)
	v5, v6 = min(v5, v6), max(v5, v6)
	v7, v8 = min(v7, v8), max(v7, v8)
	v9, v10 = min(v9, v10), max(v9, v10)
	v11, v12 = min(v11, v12), max(v11, v12)

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13
}

// sort15MinMax sorts s[:15] in place with a sorting-network kernel:
// depth 9, size 59, depth-optimal (proven minimum 9).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort15MinMax[T cmp.Ordered](s []T) {
	_ = s[14]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], s[14]

	// level 1
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v5 = min(v4, v5), max(v4, v5)
	v6, v7 = min(v6, v7), max(v6, v7)
	v8, v9 = min(v8, v9), max(v8, v9)
	v10, v11 = min(v10, v11), max(v10, v11)
	v12, v13 = min(v12, v13), max(v12, v13)

	// level 2
	v0, v2 = min(v0, v2), max(v0, v2)
	v1, v3 = min(v1, v3), max(v1, v3)
	v4, v6 = min(v4, v6), max(v4, v6)
	v5, v7 = min(v5, v7), max(v5, v7)
	v8, v10 = min(v8, v10), max(v8, v10)
	v9, v11 = min(v9, v11), max(v9, v11)
	v12, v14 = min(v12, v14), max(v12, v14)

	// level 3
	v0, v4 = min(v0, v4), max(v0, v4)
	v1, v6 = min(v1, v6), max(v1, v6)
	v2, v5 = min(v2, v5), max(v2, v5)
	v3, v7 = min(v3, v7), max(v3, v7)
	v8, v12 = min(v8, v12), max(v8, v12)
	v9, v14 = min(v9, v14), max(v9, v14)
	v10, v13 = min(v10, v13), max(v10, v13)

	// level 4
	v0, v8 = min(v0, v8), max(v0, v8)
	v1, v9 = min(v1, v9), max(v1, v9)
	v2, v10 = min(v2, v10), max(v2, v10)
	v3, v11 = min(v3, v11), max(v3, v11)
	v4, v12 = min(v4, v12), max(v4, v12)
	v5, v13 = min(v5, v13), max(v5, v13)
	v6, v14 = min(v6, v14), max(v6, v14)

	// level 5
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v12 = min(v3, v12), max(v3, v12)
	v4, v8 = min(v4, v8), max(v4, v8)
	v5, v9 = min(v5, v9), max(v5, v9)
	v6, v10 = min(v6, v10), max(v6, v10)
	v7, v11 = min(v7, v11), max(v7, v11)
	v13, v14 = min(v13, v14), max(v13, v14)

	// level 6
	v2, v8 = min(v2, v8), max(v2, v8)
	v3, v10 = min(v3, v10), max(v3, v10)
	v5, v12 = min(v5, v12), max(v5, v12)
	v6, v9 = min(v6, v9), max(v6, v9)
	v7, v13 = min(v7, v13), max(v7, v13)

	// level 7
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v8 = min(v3, v8), max(v3, v8)
	v5, v6 = min(v5, v6), max(v5, v6)
	v7, v12 = min(v7, v12), max(v7, v12)
	v9, v10 = min(v9, v10), max(v9, v10)
	v13, v14 = min(v13, v14), max(v13, v14)

	// level 8
	v2, v4 = min(v2, v4), max(v2, v4)
	v3, v5 = min(v3, v5), max(v3, v5)
	v6, v8 = min(v6, v8), max(v6, v8)
	v7, v9 = min(v7, v9), max(v7, v9)
	v10, v12 = min(v10, v12), max(v10, v12)
	v11, v13 = min(v11, v13), max(v11, v13)

	// level 9
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v4 = min(v3, v4), max(v3, v4)
	v5, v6 = min(v5, v6), max(v5, v6)
	v7, v8 = min(v7, v8), max(v7, v8)
	v9, v10 = min(v9, v10), max(v9, v10)
	v11, v12 = min(v11, v12), max(v11, v12)
	v13, v14 = min(v13, v14), max(v13, v14)

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], s[14] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14
}

// sort16MinMax sorts s[:16] in place with a sorting-network kernel:
// depth 9, size 65, depth-optimal (proven minimum 9).
// Exchanges are min/max pairs; float input must be NaN-free.
func sort16MinMax[T cmp.Ordered](s []T) {
	_ = s[15]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], s[14], s[15]

	// level 1
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v3 = min(v2, v3), max(v2, v3)
	v4, v5 = min(v4, v5), max(v4, v5)
	v6, v7 = min(v6, v7), max(v6, v7)
	v8, v9 = min(v8, v9), max(v8, v9)
	v10, v11 = min(v10, v11), max(v10, v11)
	v12, v13 = min(v12, v13), max(v12, v13)
	v14, v15 = min(v14, v15), max(v14, v15)

	// level 2
	v0, v2 = min(v0, v2), max(v0, v2)
	v1, v3 = min(v1, v3), max(v1, v3)
	v4, v6 = min(v4, v6), max(v4, v6)
	v5, v7 = min(v5, v7), max(v5, v7)
	v8, v10 = min(v8, v10), max(v8, v10)
	v9, v11 = min(v9, v11), max(v9, v11)
	v12, v14 = min(v12, v14), max(v12, v14)
	v13, v15 = min(v13, v15), max(v13, v15)

	// level 3
	v0, v4 = min(v0, v4), max(v0, v4)
	v1, v6 = min(v1, v6), max(v1, v6)
	v2, v5 = min(v2, v5), max(v2, v5)
	v3, v7 = min(v3, v7), max(v3, v7)
	v8, v12 = min(v8, v12), max(v8, v12)
	v9, v14 = min(v9, v14), max(v9, v14)
	v10, v13 = min(v10, v13), max(v10, v13)
	v11, v15 = min(v11, v15), max(v11, v15)

	// level 4
	v0, v8 = min(v0, v8), max(v0, v8)
	v1, v9 = min(v1, v9), max(v1, v9)
	v2, v10 = min(v2, v10), max(v2, v10)
	v3, v11 = min(v3, v11), max(v3, v11)
	v4, v12 = min(v4, v12), max(v4, v12)
	v5, v13 = min(v5, v13), max(v5, v13)
	v6, v14 = min(v6, v14), max(v6, v14)
	v7, v15 = min(v7, v15), max(v7, v15)

	// level 5
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v12 = min(v3, v12), max(v3, v12)
	v4, v8 = min(v4, v8), max(v4, v8)
	v5, v9 = min(v5, v9), max(v5, v9)
	v6, v10 = min(v6, v10), max(v6, v10)
	v7, v11 = min(v7, v11), max(v7, v11)
	v13, v14 = min(v13, v14), max(v13, v14)

	// level 6
	v2, v8 = min(v2, v8), max(v2, v8)
	v3, v10 = min(v3, v10), max(v3, v10)
	v5, v12 = min(v5, v12), max(v5, v12)
	v6, v9 = min(v6, v9), max(v6, v9)
	v7, v13 = min(v7, v13), max(v7, v13)

	// level 7
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v8 = min(v3, v8), max(v3, v8)
	v5, v6 = min(v5, v6), max(v5, v6)
	v7, v12 = min(v7, v12), max(v7, v12)
	v9, v10 = min(v9, v10), max(v9, v10)
	v13, v14 = min(v13, v14), max(v13, v14)

	// level 8
	v0, v1 = min(v0, v1), max(v0, v1)
	v2, v4 = min(v2, v4), max(v2, v4)
	v3, v5 = min(v3, v5), max(v3, v5)
	v6, v8 = min(v6, v8), max(v6, v8)
	v7, v9 = min(v7, v9), max(v7, v9)
	v10, v12 = min(v10, v12), max(v10, v12)
	v11, v13 = min(v11, v13), max(v11, v13)
	v14, v15 = min(v14, v15), max(v14, v15)

	// level 9
	v1, v2 = min(v1, v2), max(v1, v2)
	v3, v4 = min(v3, v4), max(v3, v4)
	v5, v6 = min(v5, v6), max(v5, v6)
	v7, v8 = min(v7, v8), max(v7, v8)
	v9, v10 = min(v9, v10), max(v9, v10)
	v11, v12 = min(v11, v12), max(v11, v12)
	v13, v14 = min(v13, v14), max(v13, v14)

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], s[14], s[15] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15
}
