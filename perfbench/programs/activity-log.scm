;; Import a synthetic workout log (CSV), with contracted field accessors
;; and a parameterized unit configuration consulted per record.

(define distance-unit (make-parameter 'km))
(define strict-mode (make-parameter #f))

(define record/c (flat-contract 'record? (lambda (r) (and (vector? r) (= (vector-length r) 4)))))

(define parse-field
  (contract-wrap (-> string/c any/c)
    (lambda (s)
      (let ([n (string->number s)])
        (if n n s)))
    'activity-log))

(define (parse-line line)
  (let ([parts (string-split line ",")])
    (vector (parse-field (car parts))
            (parse-field (cadr parts))
            (parse-field (caddr parts))
            (parse-field (cadddr parts)))))

(define record-distance
  (contract-wrap (-> record/c number/c)
    (lambda (r)
      (let ([d (vector-ref r 2)])
        (if (eq? (distance-unit) 'mi) (* d 0.621371) d)))
    'activity-log))

(define record-minutes
  (contract-wrap (-> record/c number/c)
    (lambda (r) (vector-ref r 3))
    'activity-log))

(define (make-line i)
  (string-append "2020-06-" (number->string (+ 1 (modulo i 28)))
                 ",run," (number->string (+ 3 (modulo i 7)))
                 "," (number->string (+ 20 (modulo i 40)))))

(define (import-log n)
  (let loop ([i 0] [acc '()])
    (if (= i n)
        (reverse acc)
        (loop (+ i 1) (cons (parse-line (make-line i)) acc)))))

(define (summarize records)
  (let loop ([rs records] [dist 0] [mins 0])
    (if (null? rs)
        (cons dist mins)
        (parameterize ([distance-unit (if (even? mins) 'km 'km)])
          (loop (cdr rs)
                (+ dist (record-distance (car rs)))
                (+ mins (record-minutes (car rs))))))))

(define (app-main n)
  (let ([summary (summarize (import-log n))])
    (cons (inexact->exact (round (exact->inexact (car summary))))
          (cdr summary))))
