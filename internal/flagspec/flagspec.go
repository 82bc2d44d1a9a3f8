// Package flagspec is the one grammar of the binaries' key=value flags
// (-slo, -faults, -tenants, -extstore): comma-separated items, each
// trimmed, empty ones skipped, durations in Go syntax or bare seconds.
package flagspec

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Scan reads s as comma-separated key=value items and calls set once
// per item, in order. Items and both sides of '=' are trimmed of white
// space and empty items are skipped, so a blank s sets nothing; an item
// without '=' is an error, and so is set's, which comes back naming its
// key.
func Scan(s string, set func(key, val string) error) error {
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return fmt.Errorf("%q is not key=value", item)
		}
		key = strings.TrimSpace(key)
		if err := set(key, strings.TrimSpace(val)); err != nil {
			return fmt.Errorf("key %q: %w", key, err)
		}
	}
	return nil
}

// Seconds reads a duration as Go syntax ("250ms") or bare seconds
// ("0.25").
func Seconds(v string) (float64, error) {
	if d, err := time.ParseDuration(v); err == nil {
		return d.Seconds(), nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is neither a duration nor seconds", v)
	}
	return f, nil
}
