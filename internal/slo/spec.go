package slo

import (
	"errors"
	"fmt"
	"strconv"

	"memqlat/internal/flagspec"
)

// ParseSpec parses a -slo flag value in the flagspec grammar. It reads
// the detector keys: window (duration), k (int), band (float), target
// (duration), budget (float). Every other key goes to other, which the
// caller reads its model keys with; a nil other makes it unknown. The
// Config has no Predicted bands yet: plane.NewWatchdog anchors them.
func ParseSpec(spec string, other func(key, val string) error) (Config, error) {
	var cfg Config
	err := flagspec.Scan(spec, func(key, val string) (err error) {
		switch key {
		case "window":
			cfg.Window, err = flagspec.Seconds(val)
		case "k":
			cfg.K, err = strconv.Atoi(val)
		case "band":
			cfg.Band, err = strconv.ParseFloat(val, 64)
		case "target":
			cfg.Target, err = flagspec.Seconds(val)
		case "budget":
			cfg.Budget, err = strconv.ParseFloat(val, 64)
		default:
			if other == nil {
				return errors.New("unknown key")
			}
			return other(key, val)
		}
		return err
	})
	if err != nil {
		return Config{}, fmt.Errorf("slo: spec %q: %w", spec, err)
	}
	return cfg, nil
}
