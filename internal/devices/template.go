package devices

import (
	"time"

	"ddoshield/internal/packet"
)

// Template is the immutable, shared blueprint for one class of device in
// one deployment context: the profile's behavior table, the pre-scaled
// client think times, and the addresses every instance targets. A fleet
// holds one Template per (profile, target) pair and every Device carries
// only a pointer to it, so the per-device footprint stays a small struct
// (name, seed, runtime state) no matter how large the fleet grows — the
// flyweight pattern lean IoT simulation frameworks use to reach
// 100k–1M-client fleets.
//
// Templates are read-only after construction and therefore safe to share
// across PDES domains.
type Template struct {
	profile Profile
	tserver packet.Addr
	spoof   packet.Prefix
	// think is the profile-scaled base think time; video and FTP clients
	// derive their own pacing from it (2x and 3x) exactly as the original
	// per-device config did.
	think time.Duration
}

// TemplateConfig parameterizes NewTemplate.
type TemplateConfig struct {
	// Profile selects class behaviour.
	Profile Profile
	// TServer is the benign target server's address.
	TServer packet.Addr
	// SpoofRange is handed to the bot for flood source forging.
	SpoofRange packet.Prefix
	// MeanThink is the base think time between benign requests
	// (default 5 s, scaled by the profile's ThinkScale).
	MeanThink time.Duration
}

// NewTemplate builds the shared blueprint for one device class.
func NewTemplate(cfg TemplateConfig) *Template {
	if cfg.MeanThink <= 0 {
		cfg.MeanThink = 5 * time.Second
	}
	think := cfg.MeanThink
	if cfg.Profile.ThinkScale > 0 {
		think = time.Duration(float64(think) * cfg.Profile.ThinkScale)
	}
	return &Template{
		profile: cfg.Profile,
		tserver: cfg.TServer,
		spoof:   cfg.SpoofRange,
		think:   think,
	}
}

// Instantiate returns an unstarted flyweight device backed by this
// template. name identifies the device (bot ID, container name) and seed
// drives its private randomness; everything class-level is shared.
func (t *Template) Instantiate(name string, seed int64) *Device {
	return &Device{tmpl: t, name: name, seed: seed}
}

// rearm resets a retained service to factory-new state for a device
// (re)start: the device's credential, fresh stats, its install hook.
//
// Devices keep their TelnetService across restarts instead of returning
// it to a fleet-wide pool. Retention must be strictly per-device: telnet
// sessions opened before a crash outlive Stop() — their connection events
// and retransmit timers keep firing against the service object — so a
// service recycled to a DIFFERENT device would let those late events
// observe the new owner's credential and install hook, and which device
// got the recycled object would depend on pool scheduling, not on the
// simulation. (That exact bug made faulted partitioned campaigns diverge
// from serial ones.) Per-device reuse gives churn-heavy campaigns the
// same allocation win with no cross-device channel.
func (t *TelnetService) rearm(user, pass string, onInstall func(c2 packet.Addr, port uint16)) {
	t.user, t.pass = user, pass
	t.hardened = user == ""
	t.OnInstall = onInstall
	t.listener = nil
}
