package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/api"
	"repro/pkg/client"
)

// runRemote drives a live maprat-server through the pkg/client SDK: the
// same requests as local mode, but mining happens server-side. With
// -async the request is submitted as a job, progress streams to stderr
// over SSE, and the result is fetched once the job completes.
func runRemote(ctx context.Context, w io.Writer, serverURL string, o runOpts) error {
	c, err := client.New(serverURL)
	if err != nil {
		return err
	}
	var v any
	if o.async {
		v, err = runRemoteAsync(ctx, c, o)
	} else {
		v, err = fetchRemote(ctx, c, o)
	}
	if err != nil {
		return err
	}
	render(w, v, o.color)
	return nil
}

// fetchRemote runs one synchronous endpoint and returns its response
// document.
func fetchRemote(ctx context.Context, c *client.Client, o runOpts) (any, error) {
	switch o.op {
	case "group":
		return c.Group(ctx, o.params)
	case "drill":
		return c.Drill(ctx, o.params)
	case "evolution":
		return c.Evolution(ctx, o.params)
	default:
		return c.Explain(ctx, o.params)
	}
}

// runRemoteAppend posts one batch of new ratings from a JSON file (or
// stdin via "-") and prints the epoch the server accepted it at.
func runRemoteAppend(ctx context.Context, serverURL string, args []string) error {
	if len(args) != 1 {
		return errors.New("usage: maprat -server URL append <ratings.json | ->")
	}
	var (
		raw []byte
		err error
	)
	if args[0] == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(args[0])
	}
	if err != nil {
		return err
	}
	var ratings []client.RatingInput
	if err := json.Unmarshal(raw, &ratings); err != nil {
		return fmt.Errorf("parse ratings: %w", err)
	}
	c, err := client.New(serverURL)
	if err != nil {
		return err
	}
	resp, err := c.AppendRatings(ctx, "", ratings)
	if err != nil {
		return err
	}
	fmt.Printf("accepted %d ratings at epoch %d\n", resp.Accepted, resp.Epoch)
	return nil
}

// runRemoteAsync submits the op as a job, streams restart progress to
// stderr, and returns the completed result document.
func runRemoteAsync(ctx context.Context, c *client.Client, o runOpts) (any, error) {
	job, err := c.SubmitJob(ctx, o.op, o.params)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "job %s submitted (%s)\n", job.ID, job.State)
	st, err := c.StreamJob(ctx, job.ID, func(ev client.JobEvent) error {
		switch {
		case ev.Type == "progress":
			if p := ev.Progress(); p != nil {
				fmt.Fprintf(os.Stderr, "job %s: restart %d/%d\n", job.ID, p.Done, p.Total)
			}
		case ev.Type == "state":
			if s := ev.Status(); s != nil {
				fmt.Fprintf(os.Stderr, "job %s: %s\n", job.ID, s.State)
			}
		case ev.Terminal():
			fmt.Fprintf(os.Stderr, "job %s: %s\n", job.ID, ev.Type)
		}
		return nil
	})
	if err != nil {
		// A job that ran and failed arrives as a typed error; the job is
		// already terminal, so there is nothing to cancel.
		var jfe *client.JobFailedError
		if errors.As(err, &jfe) {
			return nil, fmt.Errorf("job %s failed: %s: %s", jfe.ID, jfe.Code, jfe.Message)
		}
		if ctx.Err() != nil {
			// Interrupted: cancel server-side on a fresh context so the
			// worker slot frees immediately.
			cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, _ = c.CancelJob(cctx, job.ID)
		}
		return nil, err
	}
	switch st.State {
	case "done":
	case "canceled":
		return nil, fmt.Errorf("job %s canceled", st.ID)
	default:
		return nil, fmt.Errorf("job %s ended in unexpected state %q", st.ID, st.State)
	}
	v := response(o.op)
	if err := api.DecodeResponse(st.Result, v); err != nil {
		return nil, err
	}
	return v, nil
}
