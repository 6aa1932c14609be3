package devices

import (
	"time"

	"ddoshield/internal/apps/ftpapp"
	"ddoshield/internal/apps/httpapp"
	"ddoshield/internal/apps/rtmpapp"
	"ddoshield/internal/botnet"
	"ddoshield/internal/container"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
)

// Profile describes a class of IoT device: its factory telnet credential
// (drawn from the Mirai dictionary for vulnerable classes, empty for
// hardened ones) and the benign workloads it runs against the TServer.
type Profile struct {
	// Kind is a human-readable class name ("ip-camera", ...).
	Kind string
	// Cred is the factory telnet credential; a zero value hardens the
	// device against dictionary attack.
	Cred botnet.Credential
	// HTTP, Video, FTP enable the corresponding client workloads.
	HTTP  bool
	Video bool
	FTP   bool
	// ThinkScale stretches (>1) or compresses (<1) client think times,
	// differentiating chatty devices from quiet ones. Zero means 1.
	ThinkScale float64
}

// Built-in profiles modeled on the device classes Mirai notoriously
// conscripted (cameras, DVRs) plus benign-only classes.
var (
	// ProfileIPCamera is a vulnerable camera that watches video streams
	// and fetches firmware/config over HTTP.
	ProfileIPCamera = Profile{
		Kind: "ip-camera", Cred: botnet.Credential{User: "root", Pass: "xc3511"},
		HTTP: true, Video: true,
	}
	// ProfileDVR is a vulnerable DVR doing video and FTP.
	ProfileDVR = Profile{
		Kind: "dvr", Cred: botnet.Credential{User: "root", Pass: "vizxv"},
		Video: true, FTP: true,
	}
	// ProfileRouter is a vulnerable home router with light HTTP chatter.
	ProfileRouter = Profile{
		Kind: "router", Cred: botnet.Credential{User: "admin", Pass: "admin"},
		HTTP: true, ThinkScale: 2,
	}
	// ProfileSensor is a hardened sensor posting small HTTP readings.
	ProfileSensor = Profile{
		Kind: "sensor", HTTP: true, ThinkScale: 0.5,
	}
	// ProfileSmartTV is a hardened TV streaming video.
	ProfileSmartTV = Profile{
		Kind: "smart-tv", Video: true,
	}
	// ProfileIdle is a hardened device with no client workloads at all: it
	// answers telnet probes (always refusing) and otherwise sits silent.
	// Large-scale fleets are mostly idle, which is what makes 100k-device
	// topologies cheap — an idle flyweight device is just a template
	// pointer, a seed, and a lazily-populated host.
	ProfileIdle = Profile{Kind: "idle"}
)

// DefaultFleet cycles the built-in profiles: 3 of 5 classes vulnerable.
var DefaultFleet = []Profile{
	ProfileIPCamera, ProfileDVR, ProfileRouter, ProfileSensor, ProfileSmartTV,
}

// ScaleFleet is the profile mix for large-scale fleet benchmarks: a small
// active head (one chatty camera, one fast sensor) on a mostly-idle body,
// cycled per 16 devices. Real IoT deployments are dominated by devices
// that sit silent between rare reports, so this is the mix the
// devices-per-wall-second headline is measured against.
var ScaleFleet = []Profile{
	ProfileIPCamera, ProfileSensor,
	ProfileIdle, ProfileIdle, ProfileIdle, ProfileIdle, ProfileIdle,
	ProfileIdle, ProfileIdle, ProfileIdle, ProfileIdle, ProfileIdle,
	ProfileIdle, ProfileIdle, ProfileIdle, ProfileIdle,
}

// Event-rate model for load-aware placement. Units are arbitrary — only
// ratios between device classes matter to the partitioner.
const (
	// idleEventWeight is the baseline every device carries: a telnet
	// listener that answers scanner probes.
	idleEventWeight = 1.0
	// eventsPerRequest approximates the simulator events one benign
	// request/response exchange costs (TCP handshake, data, teardown,
	// timers) — the multiplier on each client's request rate.
	eventsPerRequest = 12.0
	// botEventWeight dominates everything else: an infected device floods
	// at hundreds of packets per second while benign chatter is measured
	// in requests per tens of seconds.
	botEventWeight = 400.0
)

// EventWeight estimates this class's steady-state event rate in arbitrary
// units, for load-aware domain placement: potential bots dominate, benign
// chatters contribute inversely to their think times, idle devices
// contribute only the listener baseline. infectable says whether the
// device can actually be conscripted (vulnerable credential AND reachable
// by the attacker's scan range).
func (p Profile) EventWeight(meanThink time.Duration, infectable bool) float64 {
	if meanThink <= 0 {
		meanThink = 5 * time.Second
	}
	think := meanThink
	if p.ThinkScale > 0 {
		think = time.Duration(float64(think) * p.ThinkScale)
	}
	perReq := eventsPerRequest / think.Seconds()
	w := idleEventWeight
	if p.HTTP {
		w += perReq
	}
	if p.Video {
		w += perReq / 2
	}
	if p.FTP {
		w += perReq / 3
	}
	if infectable && p.Cred.User != "" {
		w += botEventWeight
	}
	return w
}

// Config wires a Device to its environment.
type Config struct {
	// Name identifies the device (bot ID, container name).
	Name string
	// Profile selects class behaviour.
	Profile Profile
	// TServer is the benign target server's address.
	TServer packet.Addr
	// SpoofRange is handed to the bot for flood source forging.
	SpoofRange packet.Prefix
	// Seed drives the device's workloads.
	Seed int64
	// MeanThink is the base think time between benign requests
	// (default 5 s, scaled by the profile's ThinkScale).
	MeanThink time.Duration
}

// Device is one Dev: telnet service + benign clients + (after infection) a
// bot. It implements container.App. The struct is a flyweight — class
// behaviour lives in the shared Template, the device itself carries only
// its identity (name, seed) and runtime state, and the app/service objects
// exist only while the device is running.
type Device struct {
	tmpl *Template
	name string
	seed int64

	telnet *TelnetService
	http   *httpapp.Client
	video  *rtmpapp.Client
	ftp    *ftpapp.Client
	bot    *botnet.Bot
	host   *netstack.Host

	running bool
}

var _ container.App = (*Device)(nil)

// New returns an unstarted device with a private single-use template.
// Fleets should build one Template per device class and Instantiate from
// it instead, so class state is shared across all instances.
func New(cfg Config) *Device {
	tmpl := NewTemplate(TemplateConfig{
		Profile:    cfg.Profile,
		TServer:    cfg.TServer,
		SpoofRange: cfg.SpoofRange,
		MeanThink:  cfg.MeanThink,
	})
	return tmpl.Instantiate(cfg.Name, cfg.Seed)
}

// Start implements container.App: it brings up the telnet service and the
// profile's benign clients. A restarted device is clean (no bot).
func (d *Device) Start(c *container.Container) {
	d.StartOn(c.Host())
}

// StartOn brings the device up on an arbitrary host (tests use this
// without a container runtime).
func (d *Device) StartOn(h *netstack.Host) {
	if d.running {
		return
	}
	d.running = true
	d.host = h
	t := d.tmpl
	if d.telnet == nil {
		d.telnet = new(TelnetService)
	}
	d.telnet.rearm(t.profile.Cred.User, t.profile.Cred.Pass, d.install)
	// Port 23 is bound fresh each start; errors only occur on double start.
	_ = d.telnet.Attach(h)
	if t.profile.HTTP {
		d.http = httpapp.NewClient(t.tserver, 0, t.think, d.seed+1)
		d.http.Attach(h)
	}
	if t.profile.Video {
		d.video = rtmpapp.NewClient(t.tserver, 2*t.think, d.seed+2)
		d.video.Attach(h)
	}
	if t.profile.FTP {
		d.ftp = ftpapp.NewClient(t.tserver, "anonymous", "iot@dev", 3*t.think, d.seed+3)
		d.ftp.Attach(h)
	}
}

// Stop implements container.App: everything is torn down, including any
// implant — Mirai does not survive a reboot. The telnet service object is
// retained for this device's next start.
func (d *Device) Stop() {
	if !d.running {
		return
	}
	d.running = false
	if d.bot != nil {
		d.bot.Detach()
		d.bot = nil
	}
	if d.telnet != nil {
		// Detach only — the service object stays with this device for its
		// next start (see rearm for why it must never change owners).
		d.telnet.Detach()
	}
	if d.http != nil {
		d.http.Detach()
		d.http = nil
	}
	if d.video != nil {
		d.video.Detach()
		d.video = nil
	}
	if d.ftp != nil {
		d.ftp.Detach()
		d.ftp = nil
	}
}

// install plants (or restarts) the bot; invoked by the telnet INSTALL
// command the loader issues.
func (d *Device) install(c2 packet.Addr, port uint16) {
	if !d.running {
		return
	}
	if d.bot != nil {
		d.bot.Detach()
	}
	d.bot = botnet.NewBot(d.name, c2, port, d.tmpl.spoof, d.seed+9)
	d.bot.Attach(d.host)
}

// Infected reports whether a bot is currently planted.
func (d *Device) Infected() bool { return d.bot != nil }

// Bot exposes the implant for inspection (nil when clean).
func (d *Device) Bot() *botnet.Bot { return d.bot }

// Telnet exposes the telnet service (nil before the first start; retained,
// detached, while stopped).
func (d *Device) Telnet() *TelnetService { return d.telnet }

// BenignStats aggregates the benign clients' request/transfer counters.
func (d *Device) BenignStats() (started, completed uint64) {
	if d.http != nil {
		f, c, _, _ := d.http.Stats()
		started += f
		completed += c
	}
	if d.video != nil {
		p, fin, _ := d.video.Stats()
		started += p
		completed += fin
	}
	if d.ftp != nil {
		s, c, _, _ := d.ftp.Stats()
		started += s
		completed += c
	}
	return started, completed
}
