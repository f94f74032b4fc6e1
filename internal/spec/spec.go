// Package spec is the one "key=value,…" grammar behind -faults and -chaos,
// and the one wording for a value outside an enumeration. A spec type names
// its keys and lists its fields in the same order; Parse fills the fields and
// Format renders them back.
package spec

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Parse fills fields, which run parallel to names, from comma-separated
// key=value text. Blanks around fields, keys and values and empty fields are
// ignored, a repeated key keeps its last value, and every value is a decimal
// uint64.
func Parse(text string, names []string, fields []*uint64) error {
	for _, field := range strings.Split(text, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, val, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("%q is not key=value", field)
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return fmt.Errorf("bad value in %q: %v", field, err)
		}
		i := slices.Index(names, strings.TrimSpace(name))
		if i < 0 {
			return Unknown("key", strings.TrimSpace(name), names...)
		}
		*fields[i] = v
	}
	return nil
}

// Format renders the fields in the canonical form Parse accepts, leaving
// zero values out when omitZero is set.
func Format(names []string, fields []*uint64, omitZero bool) string {
	var parts []string
	for i, f := range fields {
		if *f != 0 || !omitZero {
			parts = append(parts, names[i]+"="+strconv.FormatUint(*f, 10))
		}
	}
	return strings.Join(parts, ",")
}

// Unknown is the error for a value outside an enumeration:
// `unknown <what> "got" (want a, b or c)`.
func Unknown(what, got string, want ...string) error {
	list := want[len(want)-1]
	if len(want) > 1 {
		list = strings.Join(want[:len(want)-1], ", ") + " or " + list
	}
	return fmt.Errorf("unknown %s %q (want %s)", what, got, list)
}
