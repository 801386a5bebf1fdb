package testutil

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/types"
)

// WireRowsDiff compares the rows the sciqld client decoded (hand) with
// encoding/json's decoding of the same bytes (std), given the columns'
// wire kinds. The client may differ in its two documented ways only: an
// int64 in an INT/OID column where encoding/json has the nearest
// float64, and a non-finite float64 in a FLOAT column where
// encoding/json has its types.FormatFloat string. Finite floats must
// agree bit for bit. It returns nil when the rows agree.
func WireRowsDiff(kinds []string, hand, std [][]any) error {
	if len(hand) != len(std) || (hand == nil) != (std == nil) {
		return fmt.Errorf("%d rows (nil %v), encoding/json %d (nil %v)", len(hand), hand == nil, len(std), std == nil)
	}
	for i := range hand {
		h, s := hand[i], std[i]
		if len(h) != len(s) || (h == nil) != (s == nil) {
			return fmt.Errorf("row %d: %d cells (nil %v), encoding/json %d (nil %v)", i, len(h), h == nil, len(s), s == nil)
		}
		for c := range h {
			kind := ""
			if c < len(kinds) {
				kind = kinds[c]
			}
			if !sameCell(kind, h[c], s[c]) {
				return fmt.Errorf("row %d col %d (%s): %#v, encoding/json %#v", i, c, kind, h[c], s[c])
			}
		}
	}
	return nil
}

func sameCell(kind string, h, s any) bool {
	switch h := h.(type) {
	case int64:
		f, ok := s.(float64)
		return ok && (kind == "lng" || kind == "oid" || kind == "void") && float64(h) == f
	case float64:
		if math.IsInf(h, 0) || math.IsNaN(h) {
			return kind == "dbl" && s == types.FormatFloat(h)
		}
		f, ok := s.(float64)
		return ok && math.Float64bits(f) == math.Float64bits(h)
	}
	return reflect.DeepEqual(h, s)
}
