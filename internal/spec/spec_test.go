package spec

import "testing"

func TestParseFormatRoundTrip(t *testing.T) {
	names := []string{"a", "b", "seed"}
	var a, b, seed uint64
	fields := []*uint64{&a, &b, &seed}
	if err := Parse(" a = 3 ,, seed=9, a=4", names, fields); err != nil {
		t.Fatal(err)
	}
	if a != 4 || b != 0 || seed != 9 {
		t.Errorf("parsed a=%d b=%d seed=%d, want 4 0 9", a, b, seed)
	}
	if got := Format(names, fields, false); got != "a=4,b=0,seed=9" {
		t.Errorf("Format = %q", got)
	}
	if got := Format(names, fields, true); got != "a=4,seed=9" {
		t.Errorf("Format omitting zeros = %q", got)
	}
}

// One wording for every malformed field, with the offending text quoted.
func TestParseErrors(t *testing.T) {
	var v uint64
	for text, want := range map[string]string{
		"a":        `"a" is not key=value`,
		"a=x":      `bad value in "a=x": strconv.ParseUint: parsing "x": invalid syntax`,
		"a=-1":     `bad value in "a=-1": strconv.ParseUint: parsing "-1": invalid syntax`,
		" frob =3": `unknown key "frob" (want a, b or c)`,
	} {
		err := Parse(text, []string{"a", "b", "c"}, []*uint64{&v, &v, &v})
		if err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %s", text, err, want)
		}
	}
}

func TestUnknownWording(t *testing.T) {
	for want, names := range map[string][]string{
		`unknown mode "x" (want a)`:         {"a"},
		`unknown mode "x" (want a or b)`:    {"a", "b"},
		`unknown mode "x" (want a, b or c)`: {"a", "b", "c"},
	} {
		if got := Unknown("mode", "x", names...).Error(); got != want {
			t.Errorf("Unknown(%v) = %s, want %s", names, got, want)
		}
	}
}
