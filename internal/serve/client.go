package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/worker"
)

// Client talks to a campaign service. It is what `sdiq -remote` uses:
// submit the spec, follow the event stream, fetch the finished export.
type Client struct {
	// Base is the server root, e.g. "http://localhost:8080".
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// ID identifies this client for the server's per-client quotas
	// (sent as X-Sdiq-Client when non-empty). Against a server running
	// with -auth the header is ignored: identity is the token's
	// principal.
	ID string
	// Token is a tenant-role bearer credential, sent as
	// "Authorization: Bearer" when non-empty — required against a server
	// running with -auth.
	Token string
	// OnEvent, when non-nil, observes every event Run receives — the
	// hook CLI progress output hangs off.
	OnEvent func(Event)

	// RetryBase/RetryMax shape the jittered exponential backoff Run uses
	// to survive server restarts (defaults 200ms / 5s). MaxOffline
	// bounds how long Run keeps retrying an unreachable server before
	// giving up (default 2m).
	RetryBase  time.Duration
	RetryMax   time.Duration
	MaxOffline time.Duration
}

// HTTPError is an answered non-2xx API response. Errors from the client
// are *HTTPError whenever the server replied at all; transport failures
// stay plainly wrapped — the distinction is what Run's reconnect logic
// keys off (an answered 404 means the server is alive but forgot the
// campaign; a refused connection means it may be restarting).
type HTTPError struct {
	Code   int
	Method string
	Path   string
	Msg    string // server-provided error body, may be empty
	Status string // e.g. "404 Not Found"
}

func (e *HTTPError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("serve: %s %s: %s (%s)", e.Method, e.Path, e.Msg, e.Status)
	}
	return fmt.Sprintf("serve: %s %s: %s", e.Method, e.Path, e.Status)
}

// httpStatus returns err's status code when it is an *HTTPError, 0 for
// transport errors.
func httpStatus(err error) int {
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Code
	}
	return 0
}

// backoff is the client's retry delay: worker.Backoff over RetryBase
// and RetryMax, defaulting to 200ms and 5s.
func (c *Client) backoff(n int) time.Duration {
	base, ceil := c.RetryBase, c.RetryMax
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = 5 * time.Second
	}
	return worker.Backoff(n, base, ceil)
}

func (c *Client) maxOffline() time.Duration {
	if c.MaxOffline > 0 {
		return c.MaxOffline
	}
	return 2 * time.Minute
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.ID != "" {
		req.Header.Set("X-Sdiq-Client", c.ID)
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: %s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		var apiErr apiError
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&apiErr)
		return nil, &HTTPError{
			Code: resp.StatusCode, Method: method, Path: path,
			Msg: apiErr.Error, Status: resp.Status,
		}
	}
	return resp, nil
}

// Submit posts a campaign spec and returns the server's handle.
func (c *Client) Submit(ctx context.Context, spec campaign.Spec) (Submitted, error) {
	blob, err := json.Marshal(spec)
	if err != nil {
		return Submitted{}, fmt.Errorf("serve: encoding spec: %w", err)
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/campaigns", bytes.NewReader(blob))
	if err != nil {
		return Submitted{}, err
	}
	defer resp.Body.Close()
	var sub Submitted
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return Submitted{}, fmt.Errorf("serve: decoding submission: %w", err)
	}
	return sub, nil
}

// Status fetches a campaign's snapshot.
func (c *Client) Status(ctx context.Context, id string) (CampaignInfo, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id, nil)
	if err != nil {
		return CampaignInfo{}, err
	}
	defer resp.Body.Close()
	var info CampaignInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return CampaignInfo{}, fmt.Errorf("serve: decoding status: %w", err)
	}
	return info, nil
}

// Stream follows a campaign's NDJSON event stream from the beginning,
// calling fn for every event until the stream ends (the campaign is
// done) or fn returns an error.
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) error) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("serve: bad event %q: %w", line, err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Export fetches a finished campaign's export in the given format
// ("csv" or "json") — the bytes the CLI's local -export would write.
func (c *Client) Export(ctx context.Context, id, format string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/export?format="+format, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Delete drops a finished campaign from the server's registry (its
// events and results are gone; the disk cache keeps the simulations).
func (c *Client) Delete(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/campaigns/"+id, nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// ResultSet fetches and decodes a finished campaign.
func (c *Client) ResultSet(ctx context.Context, id string) (*campaign.ResultSet, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/export?format=json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return campaign.ReadJSON(resp.Body)
}

// Run is the remote analogue of Engine.Run: submit the spec, follow its
// progress (relaying to OnEvent), and return the finished ResultSet.
// Run survives server restarts: a broken stream is re-opened with
// jittered backoff (events already relayed are filtered by sequence
// number; a durable server replays history, possibly pre-folded into a
// snapshot event), a server that came back with no memory of the
// campaign gets the spec resubmitted (the shared result cache makes the
// re-run cheap), and an unreachable server is retried for up to
// MaxOffline before Run gives up. A failed campaign returns its
// server-side error.
func (c *Client) Run(ctx context.Context, spec campaign.Spec) (*campaign.ResultSet, error) {
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}

	var done *Event
	lastSeq := -1
	var offlineSince time.Time
	fails := 0
	for done == nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		_ = c.Stream(ctx, sub.ID, func(ev Event) error {
			if ev.Type == EventSnapshot {
				// A compaction snapshot stands in for folded history;
				// relay it even when it overlaps what we saw live.
				if ev.Seq > lastSeq {
					lastSeq = ev.Seq
				}
			} else {
				if ev.Seq <= lastSeq {
					return nil // replayed history we already relayed
				}
				lastSeq = ev.Seq
			}
			if c.OnEvent != nil {
				c.OnEvent(ev)
			}
			if ev.Type == EventDone {
				ev := ev
				done = &ev
			}
			return nil
		})
		if done != nil {
			// The stream's transport error is deliberately dropped once
			// the done event is in hand: the outcome is known, and the
			// export fetch below stands on its own connection.
			break
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// The stream broke mid-campaign (server restart, network hiccup).
		// Probe the status to decide how to resume.
		info, serr := c.Status(ctx, sub.ID)
		switch {
		case serr == nil:
			offlineSince, fails = time.Time{}, 0
			if info.Done {
				if info.Error != "" {
					return nil, fmt.Errorf("%w: %s", errCampaignFailed, info.Error)
				}
				done = &Event{Type: EventDone, Campaign: sub.ID}
			}
			continue // server is alive: re-attach the stream
		case httpStatus(serr) == http.StatusNotFound:
			// The server restarted without durable state — the campaign
			// is gone. Resubmit and follow the new one from scratch.
			if sub, err = c.Submit(ctx, spec); err != nil {
				return nil, err
			}
			lastSeq, offlineSince, fails = -1, time.Time{}, 0
			continue
		case httpStatus(serr) != 0:
			return nil, serr // answered with an error waiting cannot fix
		}
		// Transport error: the server may be restarting. Back off, bounded.
		if offlineSince.IsZero() {
			offlineSince = time.Now()
		}
		if time.Since(offlineSince) > c.maxOffline() {
			return nil, fmt.Errorf("serve: server unreachable for %v: %w", c.maxOffline(), serr)
		}
		fails++
		select {
		case <-time.After(c.backoff(fails - 1)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if done.Error != "" {
		return nil, fmt.Errorf("%w: %s", errCampaignFailed, done.Error)
	}

	// Fetch the export, surviving a restart racing it: a just-recovered
	// server briefly re-runs the campaign from cache (409 while it
	// finishes) or may still be coming up (transport error).
	offlineSince, fails = time.Time{}, 0
	for {
		rs, err := c.ResultSet(ctx, sub.ID)
		if err == nil {
			return rs, nil
		}
		if code := httpStatus(err); code != 0 && code != http.StatusConflict {
			return nil, err
		}
		if offlineSince.IsZero() {
			offlineSince = time.Now()
		}
		if time.Since(offlineSince) > c.maxOffline() {
			return nil, err
		}
		fails++
		select {
		case <-time.After(c.backoff(fails - 1)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
