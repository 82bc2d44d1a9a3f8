package flagspec

import (
	"errors"
	"strings"
	"testing"
)

func TestScan(t *testing.T) {
	var got []string
	err := Scan(" a = 1 ,, b=2=3 ,c=", func(key, val string) error {
		got = append(got, key+"|"+val)
		return nil
	})
	if want := "a|1 b|2=3 c|"; err != nil || strings.Join(got, " ") != want {
		t.Fatalf("Scan = %q, %v; want %q", got, err, want)
	}
	if err := Scan("a=1,b", func(string, string) error { return nil }); err == nil || !strings.Contains(err.Error(), `"b" is not key=value`) {
		t.Errorf("item without '=': %v", err)
	}
	err = Scan("a=1", func(string, string) error { return errors.New("unknown key") })
	if err == nil || err.Error() != `key "a": unknown key` {
		t.Errorf("set's error = %v, want it naming the key", err)
	}
}
